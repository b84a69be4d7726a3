//! Live telemetry: the one table that says which leaves of the stats
//! JSON are exported, a [`TimeSeriesRegistry`] sampling them, and the
//! Prometheus exposition of the same snapshot.
//!
//! [`METRICS`] lists every exported family once, as a `(path, kind,
//! help)` row over [`crate::SentinelStats::to_json`]; the walker in
//! [`sentinel_obs::metrics`] derives every series and family name from
//! the path (see that module for the naming rule). The sampler thread
//! pays for one stats pass per resolution interval and a scrape pays for
//! one per request; the hot paths never see any of it. A server started
//! on the system hands it the `net` and `service` sections, so they are
//! sampled and scraped whichever of server and telemetry starts first.

use std::sync::Arc;
use std::time::Duration;

use sentinel_obs::json;
use sentinel_obs::metrics::{self, MetricKind::*, MetricRow};
use sentinel_obs::timeseries::{SamplerHandle, TimeSeriesRegistry};
use sentinel_obs::timeseries::{DEFAULT_CAPACITY, DEFAULT_RESOLUTION};

use crate::sentinel::Sentinel;

/// Every exported metric: one row per family.
pub const METRICS: &[MetricRow] = &[
    ("detector.signals", Counter, "Primitive event signals accepted"),
    ("detector.shards{shard}.signals", Counter, "Signals processed per detector shard"),
    ("detector.shards{shard}.contention", Counter, "Order-lock contention per detector shard"),
    ("detector.shards{shard}.queue_depth", Gauge, "Queued, undrained signals per shard"),
    ("scheduler.fired{coupling}", Counter, "Rules dispatched by coupling mode"),
    ("scheduler.per_rule{rule}", Counter, "Dispatches per rule"),
    ("scheduler.condition", Histogram, "Rule condition wall time, ns"),
    ("scheduler.action", Histogram, "Rule action wall time, ns"),
    ("storage.locks.waits", Counter, "Storage lock requests that blocked"),
    ("storage.locks.deadlocks", Counter, "Storage lock requests refused as deadlock victims"),
    ("durability.journal_appends", Counter, "Journal records appended"),
    ("durability.journal_fsyncs", Counter, "Journal fsyncs issued"),
    ("durability.group_commits", Counter, "Group commits performed"),
    ("durability.checkpoints", Counter, "Checkpoints written"),
    ("durability.group_commit_flush", Histogram, "Group-commit flush wall time, ns"),
    ("durability.checkpoint_duration", Histogram, "Checkpoint write wall time, ns"),
    ("replication.tip", Gauge, "Replication log tip (entries)"),
    ("replication.applied", Gauge, "Replica apply watermark"),
    ("replication.applied_entries", Counter, "Entries applied by the local apply loop"),
    ("replication.last_contact_ms", Gauge, "Milliseconds since the replica heard its primary"),
    ("replication.followers{follower}.lag", Gauge, "Follower lag in log entries"),
    ("replication.followers{follower}.age_ms", Gauge, "Milliseconds since the follower's ack"),
    ("net.frames_in", Counter, "Frames received"),
    ("net.frames_out", Counter, "Frames sent"),
    ("net.bytes_in", Counter, "Bytes received"),
    ("net.bytes_out", Counter, "Bytes sent"),
    ("net.busy_rejections", Counter, "Requests rejected with Busy"),
    ("net.connections_active", Gauge, "Open connections"),
    ("net.event_loops", Gauge, "Reactor event loops"),
    ("net.epoll_wakeups", Counter, "epoll_wait returns across reactor loops"),
    ("net.write_calls", Counter, "write(2) calls that sent bytes"),
    ("net.partial_writes", Counter, "Writes resumed under EPOLLOUT"),
    ("net.stall_evictions", Counter, "Connections evicted for stalling mid-frame or mid-write"),
    ("net.overflow_evictions", Counter, "Connections evicted for overflowing the write queue"),
    ("service.queue_depth", Gauge, "Queued, undrained async signals"),
    ("service.processed", Counter, "Async signals processed"),
    ("service.drain_latency", Histogram, "Enqueue-to-processed latency, ns"),
];

impl Sentinel {
    /// Starts the telemetry sampler over this system: a
    /// [`TimeSeriesRegistry`] fed by a once-per-tick [`Sentinel::stats`]
    /// pass through [`METRICS`]. Idempotent — a second call returns the
    /// existing registry. The sampler holds only a weak reference, so
    /// telemetry never keeps a dropped system alive.
    pub fn start_telemetry(
        self: &Arc<Self>,
        resolution: Duration,
        capacity: usize,
    ) -> Arc<TimeSeriesRegistry> {
        let mut slot = self.telemetry.lock();
        if let Some((registry, _)) = slot.as_ref() {
            return registry.clone();
        }
        let weak = Arc::downgrade(self);
        let registry = TimeSeriesRegistry::new(resolution, capacity, move || {
            weak.upgrade()
                .map(|s| metrics::samples(METRICS, &s.stats().to_json()))
                .unwrap_or_default()
        });
        let sampler = registry.start_sampler();
        *slot = Some((registry.clone(), sampler));
        registry
    }

    /// [`Sentinel::start_telemetry`] with the default 1 s × 15 min
    /// retention.
    pub fn start_telemetry_default(self: &Arc<Self>) -> Arc<TimeSeriesRegistry> {
        self.start_telemetry(DEFAULT_RESOLUTION, DEFAULT_CAPACITY)
    }

    /// The telemetry registry, when the sampler is running.
    pub fn telemetry(&self) -> Option<Arc<TimeSeriesRegistry>> {
        self.telemetry.lock().as_ref().map(|(r, _)| r.clone())
    }

    /// Stops the sampler thread and drops the registry.
    pub fn stop_telemetry(&self) {
        *self.telemetry.lock() = None;
    }

    /// The registry's ring buffers in the scrape JSON schema (`Null`
    /// when telemetry is off).
    pub fn telemetry_json(&self) -> json::Value {
        self.telemetry().map_or(json::Value::Null, |r| r.to_json())
    }

    /// The current stats snapshot as Prometheus exposition text (format
    /// 0.0.4).
    pub fn prom_text(&self) -> String {
        metrics::prom_text(METRICS, &self.stats().to_json())
    }
}

/// Keeps `Sentinel`'s private field type out of the struct definition's
/// way: the registry plus its sampler handle (dropping the pair stops
/// the thread).
pub(crate) type TelemetrySlot = Option<(Arc<TimeSeriesRegistry>, SamplerHandle)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SentinelStats;

    fn sample_names(stats: &SentinelStats) -> Vec<String> {
        metrics::samples(METRICS, &stats.to_json()).into_iter().map(|s| s.series).collect()
    }

    #[test]
    fn samples_cover_detector_scheduler_and_rules() {
        let s = Sentinel::in_memory();
        s.declare_explicit("tick").unwrap();
        s.define_rule("r1", "tick", Arc::new(|_| true), Arc::new(|_| {}), Default::default())
            .unwrap();
        s.raise(None, "tick", vec![]).unwrap();
        let names = sample_names(&s.stats());
        assert!(names.iter().any(|n| n == "detector.signals"));
        assert!(names.iter().any(|n| n == "scheduler.fired.immediate"));
        assert!(names.iter().any(|n| n == "scheduler.per_rule.r1"));
        assert!(names.iter().any(|n| n == "scheduler.condition.p99_ns"));
        assert!(names.iter().any(|n| n.starts_with("detector.shards.")));
        assert!(!names.iter().any(|n| n.starts_with("durability.")), "in-memory: no section");
    }

    #[test]
    fn start_telemetry_is_idempotent_and_samples_series() {
        let s = Sentinel::in_memory();
        let reg = s.start_telemetry(Duration::from_secs(3600), 16);
        let again = s.start_telemetry(Duration::from_secs(1), 8);
        assert!(Arc::ptr_eq(&reg, &again), "second start returns the same registry");
        s.declare_explicit("tick").unwrap();
        s.raise(None, "tick", vec![]).unwrap();
        reg.sample_at(100);
        reg.sample_at(101);
        let points = reg.series_points("detector.signals");
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].1, 0, "no signals between ticks 100 and 101");
        s.stop_telemetry();
        assert!(s.telemetry().is_none());
    }

    #[test]
    fn prom_text_has_the_core_families() {
        let s = Sentinel::in_memory();
        s.declare_explicit("tick").unwrap();
        s.raise(None, "tick", vec![]).unwrap();
        let text = s.prom_text();
        assert!(text.contains("# TYPE sentinel_detector_signals_total counter"));
        assert!(text.contains("sentinel_detector_signals_total 1"));
        assert!(text.contains("# TYPE sentinel_scheduler_condition histogram"));
        assert!(text.contains("sentinel_scheduler_fired_total{coupling=\"immediate\"}"));
    }
}
