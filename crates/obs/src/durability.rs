//! Durability-layer observability: counters for the `sentinel-durable`
//! subsystem (catalog + event journal + checkpoints) and the structured
//! recovery report produced when a data directory is reopened.
//!
//! The durable engine owns one [`DurabilityMetrics`] and bumps it from the
//! signalling threads (relaxed atomics, same discipline as the rest of
//! this crate); [`DurabilityMetrics::to_json`] renders the `durability`
//! section that `Sentinel::stats()` carries.

use crate::{json, Counter, Gauge, Histogram};

/// Live counters for one durable engine.
#[derive(Debug, Default)]
pub struct DurabilityMetrics {
    /// Events appended to the journal.
    pub journal_appends: Counter,
    /// Payload bytes appended to the journal (excluding frame headers).
    pub journal_bytes: Counter,
    /// `fsync` calls issued for the event journal.
    pub journal_fsyncs: Counter,
    /// Journal segment rotations.
    pub journal_rotations: Counter,
    /// DDL operations appended to the catalog.
    pub catalog_appends: Counter,
    /// Checkpoints written successfully.
    pub checkpoints: Counter,
    /// Checkpoint attempts that failed (I/O errors; the journal still
    /// covers the state, recovery just replays more).
    pub checkpoint_failures: Counter,
    /// Bytes written into checkpoint files.
    pub checkpoint_bytes: Counter,
    /// Wall time per checkpoint write, ns.
    pub checkpoint_duration: Histogram,
    /// Journal record index the newest checkpoint covers.
    pub last_checkpoint_tag: Gauge,
    /// Group commits performed (one per committer fsync batch).
    pub group_commits: Counter,
    /// Journal records made durable by group commits (batch sizes sum).
    pub group_commit_records: Counter,
    /// Wall time per group-commit flush (all dirty streams), ns.
    pub group_commit_flush: Histogram,
    /// Fence records appended to the journal.
    pub journal_fences: Counter,
}

impl DurabilityMetrics {
    /// Renders the `durability` stats section.
    pub fn to_json(&self) -> json::Value {
        let u = json::Value::UInt;
        json::Value::obj([
            ("journal_appends", u(self.journal_appends.get())),
            ("journal_bytes", u(self.journal_bytes.get())),
            ("journal_fsyncs", u(self.journal_fsyncs.get())),
            ("journal_rotations", u(self.journal_rotations.get())),
            ("catalog_appends", u(self.catalog_appends.get())),
            ("checkpoints", u(self.checkpoints.get())),
            ("checkpoint_failures", u(self.checkpoint_failures.get())),
            ("checkpoint_bytes", u(self.checkpoint_bytes.get())),
            ("checkpoint_duration", self.checkpoint_duration.snapshot().to_json()),
            ("last_checkpoint_tag", u(self.last_checkpoint_tag.get())),
            ("group_commits", u(self.group_commits.get())),
            ("group_commit_records", u(self.group_commit_records.get())),
            ("group_commit_flush", self.group_commit_flush.snapshot().to_json()),
            ("journal_fences", u(self.journal_fences.get())),
        ])
    }
}

/// Wall time spent in each phase of a recovery pass, microseconds.
/// Rendered into `recovery-report.json` and the server's `recovered...`
/// readiness line so slow restarts are attributable to a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// Repairing the fence log (truncating torn/epoch-hole tails).
    pub fence_repair_us: u64,
    /// Scanning per-shard streams and merging them by `(epoch, ts,
    /// shard)` into replay order.
    pub stream_merge_us: u64,
    /// Restoring the newest valid graph snapshot checkpoint.
    pub snapshot_restore_us: u64,
    /// Replaying catalog DDL interleaved at its recorded journal
    /// positions.
    pub catalog_interleave_us: u64,
    /// Replaying the journal suffix through the detector.
    pub replay_us: u64,
    /// End-to-end `open_durable` wall time.
    pub total_us: u64,
}

impl RecoveryPhases {
    /// Renders as a JSON object.
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("fence_repair_us", json::Value::UInt(self.fence_repair_us)),
            ("stream_merge_us", json::Value::UInt(self.stream_merge_us)),
            ("snapshot_restore_us", json::Value::UInt(self.snapshot_restore_us)),
            ("catalog_interleave_us", json::Value::UInt(self.catalog_interleave_us)),
            ("replay_us", json::Value::UInt(self.replay_us)),
            ("total_us", json::Value::UInt(self.total_us)),
        ])
    }
}

/// What one recovery pass found in a data directory — written to
/// `recovery-report.json` and surfaced through the server logs and the CI
/// crash-restart smoke artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Catalog operations replayed.
    pub catalog_ops: u64,
    /// Journal record index covered by the checkpoint that was restored
    /// (`None` when recovery started from an empty graph).
    pub checkpoint_tag: Option<u64>,
    /// Checkpoint files found on disk.
    pub checkpoints_scanned: u64,
    /// Checkpoint files rejected (bad checksum, undecodable, or refusing
    /// to validate against the rebuilt graph).
    pub checkpoints_rejected: u64,
    /// Journal segment files scanned.
    pub journal_segments: u64,
    /// Well-formed journal records found across all segments.
    pub journal_records: u64,
    /// Journal records replayed through the detector (the suffix after the
    /// restored checkpoint).
    pub replayed_records: u64,
    /// Bytes discarded from torn/corrupt tails (journal + catalog).
    pub truncated_bytes: u64,
    /// Fence records recovered from the fence log (epoch boundaries).
    pub journal_fences: u64,
    /// Per-phase wall times of this recovery pass.
    pub phases: RecoveryPhases,
    /// The previous incarnation's flight-recorder dump (parsed from
    /// `flight-recorder.json` in the data directory), so a SIGKILL
    /// post-mortem shows the process's final seconds. `None` when no
    /// dump existed.
    pub flight_recorder: Option<json::Value>,
}

impl RecoveryReport {
    /// Renders as a JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("catalog_ops", json::Value::UInt(self.catalog_ops)),
            (
                "checkpoint_tag",
                match self.checkpoint_tag {
                    Some(t) => json::Value::UInt(t),
                    None => json::Value::Null,
                },
            ),
            ("checkpoints_scanned", json::Value::UInt(self.checkpoints_scanned)),
            ("checkpoints_rejected", json::Value::UInt(self.checkpoints_rejected)),
            ("journal_segments", json::Value::UInt(self.journal_segments)),
            ("journal_records", json::Value::UInt(self.journal_records)),
            ("replayed_records", json::Value::UInt(self.replayed_records)),
            ("truncated_bytes", json::Value::UInt(self.truncated_bytes)),
            ("journal_fences", json::Value::UInt(self.journal_fences)),
            ("phases", self.phases.to_json()),
            (
                "flight_recorder",
                match &self.flight_recorder {
                    Some(dump) => dump.clone(),
                    None => json::Value::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = DurabilityMetrics::default();
        m.journal_appends.add(7);
        m.journal_bytes.add(512);
        m.checkpoints.inc();
        m.last_checkpoint_tag.set(5);
        m.checkpoint_duration.record(1_000);
        m.group_commits.inc();
        m.group_commit_records.add(3);
        m.group_commit_flush.record(2_000);
        m.journal_fences.add(2);
        let j = m.to_json();
        let get =
            |path: &[&str]| path.iter().try_fold(&j, |v, k| v.get(k)).and_then(json::Value::as_u64);
        assert_eq!(get(&["journal_appends"]), Some(7));
        assert_eq!(get(&["journal_bytes"]), Some(512));
        assert_eq!(get(&["checkpoints"]), Some(1));
        assert_eq!(get(&["last_checkpoint_tag"]), Some(5));
        assert_eq!(get(&["checkpoint_duration", "count"]), Some(1));
        assert_eq!(get(&["group_commits"]), Some(1));
        assert_eq!(get(&["group_commit_records"]), Some(3));
        assert_eq!(get(&["group_commit_flush", "count"]), Some(1));
        assert_eq!(get(&["journal_fences"]), Some(2));
    }

    #[test]
    fn json_shape_is_stable() {
        let m = DurabilityMetrics::default();
        m.journal_appends.add(3);
        let j = m.to_json();
        assert_eq!(j.get("journal_appends").and_then(json::Value::as_u64), Some(3));
        assert_eq!(j.get("checkpoints").and_then(json::Value::as_u64), Some(0));
        assert!(j.get("checkpoint_duration").is_some());
        assert_eq!(j.get("group_commits").and_then(json::Value::as_u64), Some(0));
        assert!(j.get("group_commit_flush").is_some());
    }

    #[test]
    fn recovery_report_json_handles_missing_checkpoint() {
        let r = RecoveryReport { journal_records: 4, ..RecoveryReport::default() };
        let j = r.to_json();
        assert!(matches!(j.get("checkpoint_tag"), Some(json::Value::Null)));
        assert_eq!(j.get("journal_records").and_then(json::Value::as_u64), Some(4));
        let r = RecoveryReport { checkpoint_tag: Some(9), ..r };
        assert_eq!(r.to_json().get("checkpoint_tag").and_then(json::Value::as_u64), Some(9));
    }

    #[test]
    fn recovery_report_carries_phases_and_flight_section() {
        let mut r = RecoveryReport::default();
        r.phases.stream_merge_us = 120;
        r.phases.total_us = 450;
        let j = r.to_json();
        let phases = j.get("phases").unwrap();
        assert_eq!(phases.get("stream_merge_us").and_then(json::Value::as_u64), Some(120));
        assert_eq!(phases.get("fence_repair_us").and_then(json::Value::as_u64), Some(0));
        assert!(matches!(j.get("flight_recorder"), Some(json::Value::Null)));

        r.flight_recorder = Some(json::Value::obj([("events", json::Value::Arr(vec![]))]));
        let j = r.to_json();
        assert!(j.get("flight_recorder").unwrap().get("events").is_some());
    }
}
