//! Replica role: a follower node that rebuilds a primary's state from
//! the shipped replication stream and can be promoted on primary loss.
//!
//! A replica is, by construction, a **valid recovery prefix** of its
//! primary: it bootstraps from the primary's DDL catalog plus a
//! checkpoint-grade [`GraphSnapshot`], then applies the live stream —
//! events, epoch fences, and catalog ops, in the one total order the
//! primary's replication log records — through *exactly* the code paths
//! crash recovery uses ([`Sentinel::open_durable`]'s interleaved
//! catalog/fence/event replay). Detections produced while applying are
//! dropped, as in recovery: the primary's rules already fired (or died
//! with the primary, in which case promotion re-arms the half-detected
//! composites with their pre-crash constituent parameters intact).
//!
//! Everything a replica applies is re-journaled into its **own** durable
//! engine, so a restarted replica recovers locally and resumes tailing
//! from its watermark instead of re-bootstrapping. Automatic checkpoints
//! are disabled on a replica (`checkpoint_every` is forced to 0): the
//! engine's checkpointer could otherwise cut a snapshot in the window
//! between an entry's journal append and its graph apply, producing a
//! tag that disagrees with the graph. The apply loop
//! (`sentinel-cluster`) calls [`Sentinel::checkpoint_now`] at entry
//! boundaries instead, where the two always agree.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sentinel_detector::GraphSnapshot;
use sentinel_durable::repl::bytes_to_hex;
use sentinel_durable::{CatalogOp, DurableEngine, DurableOptions, ReplEntry};
use sentinel_obs::flight::{self, FlightKind};
use sentinel_obs::{json, RecoveryReport, ReplicationStats};

use crate::durable::JournalSink;
use crate::sentinel::{Sentinel, SentinelConfig, SentinelError, SentinelResult};

impl Sentinel {
    /// Opens a **replica**: a durable Sentinel in read-only follower
    /// mode. Recovery of whatever the directory already holds runs
    /// exactly as in [`Sentinel::open_durable`], but no live journal
    /// sink is installed (the apply loop journals shipped entries
    /// explicitly) and automatic checkpoints are off (see the module
    /// docs). [`Sentinel::promote`] turns the result into a primary.
    pub fn open_replica(
        dir: &Path,
        config: SentinelConfig,
        opts: DurableOptions,
    ) -> SentinelResult<(Arc<Sentinel>, RecoveryReport)> {
        let opts = DurableOptions { checkpoint_every: 0, ..opts };
        let (sentinel, report) = Sentinel::open_durable_inner(dir, config, opts, false)?;
        sentinel.replica.store(true, Ordering::SeqCst);
        Ok((sentinel, report))
    }

    /// Promotes this replica to primary: installs the live journal sink
    /// (from here on locally-signalled events journal and detect as on
    /// any durable primary) and clears the read-only flag, so in-flight
    /// composites whose earlier constituents arrived over the stream
    /// complete with those pre-crash parameters. Idempotent; returns
    /// `false` if the node was not a replica.
    pub fn promote(&self) -> bool {
        if !self.replica.swap(false, Ordering::SeqCst) {
            return false;
        }
        let applied = self.repl_status.lock().take().map(|st| st.applied).unwrap_or(0);
        if let Some(engine) = self.durable.lock().clone() {
            self.detector().set_event_sink(Arc::new(JournalSink::new(engine)));
        }
        flight::global().record_static(FlightKind::Promote, "promote", applied, 0);
        true
    }

    /// Publishes the replica-side replication status (shown in stats,
    /// telemetry, and Prometheus). Kept fresh by the apply loop.
    pub fn set_repl_status(&self, status: Option<ReplicationStats>) {
        *self.repl_status.lock() = status;
    }

    /// Bootstraps an **empty** replica from a primary's
    /// [`Sentinel::repl_snapshot_json`] payload: applies the DDL catalog
    /// prefix (journal-suppressed, then re-journaled locally so the
    /// local catalog records the same interleaving), restores the
    /// graph snapshot, resyncs the clock past every pinned rule tick,
    /// and cuts a local checkpoint so a restart recovers without
    /// re-bootstrapping.
    pub fn bootstrap_replica(
        &self,
        catalog: &[CatalogOp],
        snapshot: &GraphSnapshot,
    ) -> SentinelResult<()> {
        let engine = self.repl_engine()?;
        for op in catalog {
            self.suppress_journal.store(true, Ordering::SeqCst);
            let applied = self.apply_catalog_op(op);
            self.suppress_journal.store(false, Ordering::SeqCst);
            applied?;
            engine.append_catalog(op)?;
        }
        self.detector()
            .restore_snapshot(snapshot)
            .map_err(|e| SentinelError::Spec(format!("bootstrap snapshot rejected: {e}")))?;
        let max_tick = catalog
            .iter()
            .filter_map(|op| match op {
                CatalogOp::DefineRule { defined_at, .. }
                | CatalogOp::EnableRule { defined_at, .. } => Some(*defined_at),
                _ => None,
            })
            .max();
        if let Some(t) = max_tick {
            self.detector().clock().advance_to(t);
        }
        self.checkpoint_now()?;
        flight::global().record_static(
            FlightKind::CatchUp,
            "bootstrap",
            snapshot.clock,
            catalog.len() as u64,
        );
        Ok(())
    }

    /// Applies one shipped replication entry through the recovery code
    /// paths, re-journaling it into the local engine. Events and fences
    /// journal first (their graph application cannot fail, and a crash
    /// in between recovers from the local journal); catalog ops apply
    /// first (a rejected op must not poison the local catalog).
    pub fn apply_repl_entry(&self, entry: &ReplEntry) -> SentinelResult<()> {
        let engine = self.durable.lock().clone();
        match entry {
            ReplEntry::Event { shard, ev, .. } => {
                if let Some(engine) = &engine {
                    engine.append_event(*shard, ev)?;
                }
                // Detections are dropped — recovery discipline: the
                // primary's rules fired (or promotion will complete them).
                let _ = self.detector().replay(std::slice::from_ref(ev));
            }
            ReplEntry::Fence { kind, ts, .. } => {
                if let Some(engine) = &engine {
                    engine.append_fence(*kind, *ts)?;
                }
                self.apply_fence(*kind);
            }
            ReplEntry::Catalog { op, .. } => {
                self.suppress_journal.store(true, Ordering::SeqCst);
                let applied = self.apply_catalog_op(op);
                self.suppress_journal.store(false, Ordering::SeqCst);
                applied?;
                if let Some(engine) = &engine {
                    engine.append_catalog(op)?;
                }
                // Pinned definition ticks do not tick the local clock;
                // keep it in lockstep with the primary's.
                if let CatalogOp::DefineRule { defined_at, .. }
                | CatalogOp::EnableRule { defined_at, .. } = op
                {
                    self.detector().clock().advance_to(*defined_at);
                }
            }
        }
        Ok(())
    }

    // --- primary-side wire handlers -----------------------------------

    fn repl_engine(&self) -> SentinelResult<Arc<DurableEngine>> {
        self.durable.lock().clone().ok_or_else(|| {
            SentinelError::Spec(
                "replication requires a durable node (start with --data-dir)".to_string(),
            )
        })
    }

    /// Handles `ReplSubscribe`: registers `follower` (at watermark 0
    /// until its first ack) and returns the log tip plus this
    /// application's id, so the follower mirrors the app id.
    pub fn repl_subscribe_json(&self, follower: &str) -> SentinelResult<json::Value> {
        let engine = self.repl_engine()?;
        let repl = engine.replication();
        repl.ack(follower, 0);
        Ok(json::Value::obj([
            ("tip", json::Value::UInt(repl.tip())),
            ("app", json::Value::UInt(u64::from(self.app_id()))),
        ]))
    }

    /// Handles `ReplSnapshot`: cuts a bootstrap package with signalling
    /// paused, so the sequence number, catalog prefix, and graph
    /// snapshot agree — entries `>= seq` are exactly what the snapshot
    /// does not yet contain.
    pub fn repl_snapshot_json(&self) -> SentinelResult<json::Value> {
        let engine = self.repl_engine()?;
        let repl = engine.replication().clone();
        let det = self.detector();
        let (seq, snap) = det.with_signals_paused(|p| (repl.tip(), p.snapshot_state()));
        let catalog = repl.catalog_prefix(seq);
        flight::global().record_static(FlightKind::CatchUp, "snapshot", seq, catalog.len() as u64);
        Ok(json::Value::obj([
            ("seq", json::Value::UInt(seq)),
            ("catalog", json::Value::Arr(catalog)),
            ("snapshot", json::Value::Str(bytes_to_hex(&snap.encode()))),
            ("clock", json::Value::UInt(snap.clock)),
        ]))
    }

    /// Handles `ReplFrames`: the wire encoding of log entries
    /// `[from, from+max)` plus the current tip.
    pub fn repl_frames_json(&self, from: u64, max: u64) -> SentinelResult<json::Value> {
        let engine = self.repl_engine()?;
        let (entries, tip) = engine.replication().range_json(from, max);
        Ok(json::Value::obj([
            ("entries", json::Value::Arr(entries)),
            ("tip", json::Value::UInt(tip)),
        ]))
    }

    /// Handles `ReplAck`: records `follower`'s apply watermark and
    /// returns the current tip (the follower's next poll hint).
    pub fn repl_ack_json(&self, follower: &str, applied: u64) -> SentinelResult<json::Value> {
        let engine = self.repl_engine()?;
        engine.replication().ack(follower, applied);
        Ok(json::Value::obj([("tip", json::Value::UInt(engine.replication().tip()))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_durable::repl::bytes_from_hex;
    use sentinel_durable::FsyncPolicy;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sentinel-replica-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts() -> DurableOptions {
        DurableOptions { fsync: FsyncPolicy::Never, ..DurableOptions::default() }
    }

    /// A replica bootstrapped from a primary snapshot and fed the live
    /// stream detects nothing by itself, but after promotion completes a
    /// half-detected composite with the pre-crash constituent's params.
    #[test]
    fn replica_mirrors_primary_and_completes_composite_after_promote() {
        let pdir = tmpdir("primary");
        let rdir = tmpdir("replica");
        let (primary, _) =
            Sentinel::open_durable(&pdir, SentinelConfig::default(), opts()).unwrap();
        primary.declare_explicit("e_a").unwrap();
        primary.declare_explicit("e_b").unwrap();
        primary.define_event("pair", "e_a ; e_b").unwrap();
        primary
            .define_rule_spec(&json::Value::parse(
                r#"{"name":"R","event":"pair","context":"chronicle","action":{"action":"count"}}"#,
            ).unwrap())
            .unwrap();

        // First constituent lands on the primary and ships.
        primary.raise(None, "e_a", vec![("k".into(), sentinel_detector::Value::Int(7))]).unwrap();

        // Follower: bootstrap from the snapshot payload, then tail.
        let snap_json = primary.repl_snapshot_json().unwrap();
        let seq = snap_json.get("seq").and_then(json::Value::as_u64).unwrap();
        let catalog: Vec<CatalogOp> = snap_json
            .get("catalog")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| CatalogOp::from_json(v).unwrap().1)
            .collect();
        let raw = bytes_from_hex(snap_json.get("snapshot").and_then(json::Value::as_str).unwrap())
            .unwrap();
        let snap = GraphSnapshot::decode(raw.into()).unwrap();

        let (replica, _) =
            Sentinel::open_replica(&rdir, SentinelConfig::default(), opts()).unwrap();
        assert!(replica.is_replica());
        replica.bootstrap_replica(&catalog, &snap).unwrap();

        // Stream whatever the primary appended after the snapshot cut.
        let frames = primary.repl_frames_json(seq, 1024).unwrap();
        for e in frames.get("entries").and_then(json::Value::as_arr).unwrap() {
            replica.apply_repl_entry(&ReplEntry::from_json(e).unwrap()).unwrap();
        }
        // Nothing fired on the replica: apply drops detections.
        assert_eq!(replica.stats().rule_hits.get("R"), None);

        // Primary is gone; promote and finish the composite locally.
        assert!(replica.promote());
        assert!(!replica.is_replica());
        assert!(!replica.promote(), "promote is idempotent");
        replica.raise(None, "e_b", vec![("m".into(), sentinel_detector::Value::Int(9))]).unwrap();
        let stats = replica.stats();
        assert_eq!(stats.rule_hits.get("R"), Some(&1));
        let last = stats.rule_last.get("R").expect("params recorded");
        assert!(last.contains("e_a(k=7)"), "pre-crash constituent params survive: {last}");
        assert!(last.contains("e_b(m=9)"), "post-promotion constituent: {last}");

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }

    /// A restarted replica recovers locally (catalog + checkpoint +
    /// journal) and reports the same graph as before the restart.
    #[test]
    fn replica_restart_recovers_from_local_journal() {
        let pdir = tmpdir("primary2");
        let rdir = tmpdir("replica2");
        let (primary, _) =
            Sentinel::open_durable(&pdir, SentinelConfig::default(), opts()).unwrap();
        primary.declare_explicit("tick").unwrap();
        primary
            .define_rule_spec(
                &json::Value::parse(r#"{"name":"T","event":"tick","action":{"action":"count"}}"#)
                    .unwrap(),
            )
            .unwrap();
        for _ in 0..5 {
            primary.raise(None, "tick", vec![]).unwrap();
        }

        let snap_json = primary.repl_snapshot_json().unwrap();
        let seq = snap_json.get("seq").and_then(json::Value::as_u64).unwrap();
        let catalog: Vec<CatalogOp> = snap_json
            .get("catalog")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| CatalogOp::from_json(v).unwrap().1)
            .collect();
        let bootstrap_entries = catalog.len() as u64;
        let raw = bytes_from_hex(snap_json.get("snapshot").and_then(json::Value::as_str).unwrap())
            .unwrap();
        let snap = GraphSnapshot::decode(raw.into()).unwrap();

        {
            let (replica, _) =
                Sentinel::open_replica(&rdir, SentinelConfig::default(), opts()).unwrap();
            replica.bootstrap_replica(&catalog, &snap).unwrap();
            let frames = primary.repl_frames_json(seq, 1024).unwrap();
            for e in frames.get("entries").and_then(json::Value::as_arr).unwrap() {
                replica.apply_repl_entry(&ReplEntry::from_json(e).unwrap()).unwrap();
            }
            replica.flush_journal().unwrap();
            // Drop = crash (durable Sentinels never flush on drop).
        }

        let (replica, report) =
            Sentinel::open_replica(&rdir, SentinelConfig::default(), opts()).unwrap();
        assert!(report.checkpoint_tag.is_some(), "bootstrap checkpoint restored");
        // The local log re-seeds deterministically: its tip minus the
        // bootstrapped catalog prefix is the number of streamed entries
        // this replica had applied — the resume watermark offset.
        let local_tip = replica.durable_engine().unwrap().replication().tip();
        let frames = primary.repl_frames_json(seq, 1024).unwrap();
        let streamed = frames.get("entries").and_then(json::Value::as_arr).unwrap().len() as u64;
        assert_eq!(local_tip - bootstrap_entries, streamed);
        // And promotion still works after a local recovery.
        assert!(replica.promote());
        replica.raise(None, "tick", vec![]).unwrap();
        assert_eq!(replica.stats().rule_hits.get("T"), Some(&1));

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}
