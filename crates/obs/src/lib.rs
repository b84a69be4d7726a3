//! Observability primitives for Sentinel.
//!
//! The paper's architecture (§4) threads event detection, rule scheduling
//! and storage through several cooperating subsystems; this crate gives
//! each of them a uniform, allocation-light way to count, time, and
//! narrate what it is doing:
//!
//! * [`Counter`] — monotone relaxed atomic counter.
//! * [`Gauge`] — instantaneous level with a high-watermark (queue depths).
//! * [`Histogram`] — log-linear-bucketed latency histogram (nanoseconds,
//!   ≤ 12.5% relative quantile error).
//! * [`json`] — a tiny hand-rolled JSON value for serializable snapshots
//!   (the vendored `serde` shim has no real serialization, so snapshots
//!   render themselves).
//! * [`span`] — causal provenance: trace/span ids carried from primitive
//!   `Notify` through composite detection to rule condition/action, with
//!   a ring-buffer [`span::TraceStore`] and query API.
//! * [`export`] — Chrome trace-event JSON rendering of recorded spans,
//!   loadable in Perfetto.
//! * [`net`] — counters for the `sentinel-net` client/server subsystem
//!   (connections, frames, decode errors, busy rejections).
//! * [`durability`] — counters for the `sentinel-durable` subsystem
//!   (journal appends/bytes/fsyncs, checkpoint durations) plus the
//!   structured recovery report.
//! * [`repl`] — the `replication` stats section a clustered node reports
//!   (log tip, per-follower lag, a replica's apply watermark).
//! * [`timeseries`] — a lock-cheap time-series registry: fixed-interval
//!   ring buffers of counter deltas and gauge levels, sampled by a 1 Hz
//!   thread, snapshotted as JSON for live dashboards.
//! * [`metrics`] — the export walker: one table of rows over a stats JSON
//!   snapshot yields both the time-series samples and the Prometheus text.
//! * [`prom`] — Prometheus-style text exposition of counters, gauges and
//!   histograms, for standard scrapers hitting `GET /metrics`.
//! * [`flight`] — the crash flight recorder: an always-on bounded ring of
//!   the last N notable events, dumped to `flight-recorder.json` on panic
//!   and merged into the recovery report after a crash.
//!
//! Everything here is wait-free or a short critical section.

pub mod durability;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod net;
pub mod prom;
pub mod repl;
pub mod span;
pub mod timeseries;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use durability::{DurabilityMetrics, RecoveryReport};
pub use flight::{FlightEvent, FlightKind, FlightLabel, FlightRecorder};
pub use metrics::{MetricKind, MetricRow};
pub use net::NetMetrics;
pub use prom::PromText;
pub use repl::{FollowerLag, ReplicationStats};
pub use span::{Field, SpanContext, SpanId, SpanRecord, TraceId, TraceStore};
pub use timeseries::{Sample, SampleKind, SamplerHandle, TimeSeriesRegistry};

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotone event counter. All operations are relaxed: counters are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// An instantaneous level (e.g. queue depth) that remembers the highest
/// value it was ever set to.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    hwm: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge { value: AtomicU64::new(0), hwm: AtomicU64::new(0) }
    }

    /// Sets the current level and folds it into the high-watermark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.hwm.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn high_watermark(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log-linear sub-bucket resolution: each power-of-two octave is split
/// into `2^HISTOGRAM_SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-HISTOGRAM_SUB_BITS` (12.5%). The original log₄
/// buckets clamped p99 to a 4× bucket upper bound, which made tail
/// latencies useless for regression tracking.
pub const HISTOGRAM_SUB_BITS: usize = 3;

const HISTOGRAM_LINEAR: usize = 1 << HISTOGRAM_SUB_BITS;

/// Highest power of two with its own octave of buckets; samples at or
/// above `2^(HISTOGRAM_MAX_OCTAVE+1)` ns (≈ 73 min) land in the
/// open-ended last bucket.
const HISTOGRAM_MAX_OCTAVE: usize = 41;

/// Number of log-linear buckets: values below `2^HISTOGRAM_SUB_BITS` get
/// one exact bucket each; every octave above that gets
/// `2^HISTOGRAM_SUB_BITS` linear sub-buckets, up to an open-ended last
/// bucket starting around 2^42 ns.
pub const HISTOGRAM_BUCKETS: usize =
    (HISTOGRAM_MAX_OCTAVE - HISTOGRAM_SUB_BITS + 2) * HISTOGRAM_LINEAR;

/// A fixed-size log-linear histogram of nanosecond samples. Recording is
/// two relaxed atomic RMWs (the sum and the sample's bucket) and a load of
/// the maximum, which is written only when the sample exceeds it; the
/// count is the buckets' sum. Snapshots are approximate under
/// concurrency, which is fine for statistics.
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Inclusive upper bound, in ns, of log-linear bucket `i`. The last
/// bucket is open-ended (`u64::MAX`).
pub fn bucket_upper_bound_ns(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        return u64::MAX;
    }
    if i < HISTOGRAM_LINEAR {
        return i as u64;
    }
    let octave = i / HISTOGRAM_LINEAR - 1 + HISTOGRAM_SUB_BITS;
    let sub = (i % HISTOGRAM_LINEAR) as u64;
    let step = 1u64 << (octave - HISTOGRAM_SUB_BITS);
    (1u64 << octave) + (sub + 1) * step - 1
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Bucket index for a nanosecond sample: exact below
    /// `2^HISTOGRAM_SUB_BITS`, then the top `HISTOGRAM_SUB_BITS + 1` bits
    /// pick the octave and linear sub-bucket; clamped into the open-ended
    /// last bucket.
    fn bucket_of(ns: u64) -> usize {
        if ns < HISTOGRAM_LINEAR as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (msb - HISTOGRAM_SUB_BITS)) as usize) & (HISTOGRAM_LINEAR - 1);
        let idx = (msb - HISTOGRAM_SUB_BITS + 1) * HISTOGRAM_LINEAR + sub;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample, in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.sum.fetch_add(ns, Ordering::Relaxed);
        if ns > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(ns, Ordering::Relaxed);
        }
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records an elapsed [`Duration`].
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum: u64,
    /// Largest sample, ns.
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_upper_bound_ns`] for the
    /// log-linear bucket bounds).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { count: 0, sum: 0, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper
    /// bound of the log-linear bucket holding the q-th sample, clamped to
    /// the largest sample seen. Relative error is at most
    /// `2^-HISTOGRAM_SUB_BITS` (12.5%); exact below 8 ns; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped into [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // The last bucket is open-ended, so the max sample stands
                // in for its bound.
                return bucket_upper_bound_ns(i).min(self.max);
            }
        }
        self.max
    }

    /// Approximate median, ns.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// Approximate 95th percentile, ns.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// Approximate 99th percentile, ns.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Renders as a JSON object (`count`/`sum_ns`/`mean_ns`/`max_ns`,
    /// approximate `p50/p95/p99_ns`, plus the non-empty tail of
    /// `buckets`).
    pub fn to_json(&self) -> json::Value {
        let used = self.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        json::Value::obj([
            ("count", json::Value::UInt(self.count)),
            ("sum_ns", json::Value::UInt(self.sum)),
            ("mean_ns", json::Value::UInt(self.mean_ns())),
            ("max_ns", json::Value::UInt(self.max)),
            ("p50_ns", json::Value::UInt(self.p50_ns())),
            ("p95_ns", json::Value::UInt(self.p95_ns())),
            ("p99_ns", json::Value::UInt(self.p99_ns())),
            (
                "buckets",
                json::Value::Arr(
                    self.buckets[..used].iter().map(|&b| json::Value::UInt(b)).collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a snapshot from its [`Self::to_json`] rendering (`None`
    /// when a field is missing or the bucket list is too long).
    pub fn from_json(v: &json::Value) -> Option<HistogramSnapshot> {
        let field = |key: &str| v.get(key).and_then(json::Value::as_u64);
        let list = v.get("buckets")?.as_arr()?;
        if list.len() > HISTOGRAM_BUCKETS {
            return None;
        }
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, item) in buckets.iter_mut().zip(list) {
            *b = item.as_u64()?;
        }
        Some(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum_ns")?,
            max: field("max_ns")?,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_watermark() {
        let g = Gauge::new();
        g.set(3);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_watermark(), 9);
    }

    #[test]
    fn histogram_buckets_log_linear() {
        // Exact buckets below 2^SUB_BITS.
        for ns in 0..HISTOGRAM_LINEAR as u64 {
            assert_eq!(Histogram::bucket_of(ns), ns as usize);
        }
        // Each octave splits into 8 linear sub-buckets.
        assert_eq!(Histogram::bucket_of(8), 8);
        assert_eq!(Histogram::bucket_of(15), 15);
        assert_eq!(Histogram::bucket_of(16), 16);
        assert_eq!(Histogram::bucket_of(17), 16);
        assert_eq!(Histogram::bucket_of(18), 17);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bounds are consistent with indexing: every bucket's inclusive
        // upper bound maps back into the bucket, and its successor does
        // not (except in the open-ended tail).
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let upper = bucket_upper_bound_ns(i);
            assert_eq!(Histogram::bucket_of(upper), i, "upper bound of bucket {i}");
            assert_eq!(Histogram::bucket_of(upper + 1), i + 1);
        }
        assert_eq!(bucket_upper_bound_ns(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_statistics() {
        let h = Histogram::new();
        for ns in [1, 5, 17, 17, 1000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1040);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean_ns(), 208);
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[5], 1); // 5
        assert_eq!(s.buckets[16], 2); // 17, 17 in [16, 18)
        assert_eq!(s.buckets[63], 1); // 1000 in [960, 1024)
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn histogram_json_trims_empty_tail() {
        let h = Histogram::new();
        h.record(2);
        h.record(20);
        let s = h.snapshot();
        let rendered = s.to_json().to_string();
        // 20 ns lands in bucket 18 ([18, 20) is bucket 17; [20, 22) is
        // bucket 18), so the trimmed bucket array has 19 entries.
        assert!(rendered.starts_with(r#"{"count":2,"sum_ns":22,"mean_ns":11,"max_ns":20,"#));
        assert!(rendered.contains(r#""p50_ns":2,"p95_ns":20,"p99_ns":20"#));
        let parsed = json::Value::parse(&rendered).unwrap();
        assert_eq!(parsed.get("buckets").and_then(json::Value::as_arr).unwrap().len(), 19);
        // The rendering round-trips exactly, trimmed tail included.
        assert_eq!(HistogramSnapshot::from_json(&parsed), Some(s));
        assert_eq!(HistogramSnapshot::from_json(&json::Value::Null), None);
    }

    #[test]
    fn histogram_quantiles_clamp_to_bucket_upper_bound() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.p50_ns(), 0);

        let h = Histogram::new();
        // 98 fast samples (exact bucket), one mid sample, one outlier.
        for _ in 0..98 {
            h.record(2);
        }
        h.record(20);
        h.record(5_000);
        let s = h.snapshot();
        assert_eq!(s.p50_ns(), 2); // exact below 8 ns
        assert_eq!(s.p95_ns(), 2);
        assert_eq!(s.quantile_ns(0.99), 21); // 99th sample is the 20 ns one
        assert_eq!(s.quantile_ns(1.0), 5_000); // clamped to max, not 5119

        // Everything in the open-ended last bucket reports the max.
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().p50_ns(), u64::MAX);
    }

    #[test]
    fn histogram_quantile_error_is_bounded_against_exact_samples() {
        // Deterministic pseudo-random samples spanning ns..tens of ms.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut samples = Vec::with_capacity(10_000);
        let h = Histogram::new();
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Log-uniform-ish spread: scale by a shifted exponent.
            let shift = (x >> 58) % 26; // octaves 0..25 (~33 ms)
            let ns = (x >> 32) % (1u64 << (shift + 1)).max(2);
            samples.push(ns);
            h.record(ns);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        for q in [0.10, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = s.quantile_ns(q);
            assert!(approx >= exact, "q={q}: approx {approx} below exact {exact}");
            let bound = exact + exact / (1 << HISTOGRAM_SUB_BITS) as u64 + 1;
            assert!(approx <= bound, "q={q}: approx {approx} exceeds {bound} (exact {exact})");
        }
    }

    #[test]
    fn concurrent_counting_is_exact() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
