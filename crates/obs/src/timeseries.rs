//! A lock-cheap time-series registry: fixed-interval ring buffers over
//! the live counters and gauges of every subsystem.
//!
//! The hot paths never touch this module — instrumentation sites keep
//! bumping their relaxed-atomic [`crate::Counter`]s and [`crate::Gauge`]s
//! exactly as before. A single sampler thread (see
//! [`TimeSeriesRegistry::start_sampler`]) wakes once per resolution
//! interval, asks the registry's one source (given when it is built) for
//! a batch of `(series, kind, value)` samples, and folds them into
//! per-series ring buffers: counters are stored as **deltas** against the
//! previous raw reading (so a point is "events in this interval"), gauges
//! are stored as levels. The registry mutex is therefore taken once per
//! second by the sampler plus once per scrape, never by signalling
//! threads.
//!
//! Retention defaults to 1 s resolution × 15 min (900 slots); both are
//! configurable. Snapshots render as JSON —
//! `{"resolution_ms":1000,"capacity":900,"series":{name:{"kind":..,
//! "points":[[unix_s,value],..]}}}` — which is the scrape schema the
//! `MetricsScrape` opcode, the `/metrics.json` HTTP path and the
//! `sentinel-top` dashboard all share.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use parking_lot::Mutex;

use crate::json;

/// Default sampling interval.
pub const DEFAULT_RESOLUTION: Duration = Duration::from_secs(1);
/// Default ring capacity: 15 minutes at 1 s resolution.
pub const DEFAULT_CAPACITY: usize = 900;

/// How a sampled value folds into its series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// A monotone raw reading; the ring stores per-interval deltas.
    Counter,
    /// An instantaneous level; the ring stores it as-is.
    Gauge,
}

impl SampleKind {
    fn as_str(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
        }
    }
}

/// One raw reading handed to the registry by its source.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Series name, e.g. `detector.shard.3.queue_depth`.
    pub series: String,
    /// Counter (delta-folded) or gauge (level).
    pub kind: SampleKind,
    /// The raw reading.
    pub value: u64,
}

impl Sample {
    /// Builds a counter sample.
    pub fn counter(series: impl Into<String>, value: u64) -> Sample {
        Sample { series: series.into(), kind: SampleKind::Counter, value }
    }

    /// Builds a gauge sample.
    pub fn gauge(series: impl Into<String>, value: u64) -> Sample {
        Sample { series: series.into(), kind: SampleKind::Gauge, value }
    }
}

/// One series' ring: recent `(unix_s, value)` points plus the last raw
/// counter reading for delta folding.
#[derive(Debug)]
struct Series {
    kind: SampleKind,
    last_raw: u64,
    /// Oldest-first ring of points; bounded at the registry capacity.
    points: std::collections::VecDeque<(u64, u64)>,
}

/// The source of every tick's readings.
type Source = Box<dyn Fn() -> Vec<Sample> + Send + Sync>;

/// The registry: one source on one side, ring buffers on the other.
pub struct TimeSeriesRegistry {
    resolution: Duration,
    capacity: usize,
    source: Source,
    series: Mutex<BTreeMap<String, Series>>,
}

impl std::fmt::Debug for TimeSeriesRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeriesRegistry")
            .field("resolution", &self.resolution)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TimeSeriesRegistry {
    /// Creates a registry with the given sampling interval, per-series
    /// ring capacity, and the source polled on every tick.
    pub fn new(
        resolution: Duration,
        capacity: usize,
        source: impl Fn() -> Vec<Sample> + Send + Sync + 'static,
    ) -> Arc<TimeSeriesRegistry> {
        Arc::new(TimeSeriesRegistry {
            resolution: resolution.max(Duration::from_millis(1)),
            capacity: capacity.max(1),
            source: Box::new(source),
            series: Mutex::new(BTreeMap::new()),
        })
    }

    /// The sampling interval.
    pub fn resolution(&self) -> Duration {
        self.resolution
    }

    /// Polls the source and folds the readings in, stamped "now".
    pub fn sample_now(&self) {
        let unix_s = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.sample_at(unix_s);
    }

    /// Polls the source and folds the readings in at timestamp `unix_s`
    /// (tests drive this directly for determinism).
    pub fn sample_at(&self, unix_s: u64) {
        let batch = (self.source)();
        let mut all = self.series.lock();
        for sample in batch {
            let series = all.entry(sample.series).or_insert_with(|| Series {
                kind: sample.kind,
                last_raw: if sample.kind == SampleKind::Counter { sample.value } else { 0 },
                points: std::collections::VecDeque::new(),
            });
            let point = match series.kind {
                SampleKind::Counter => {
                    let delta = sample.value.saturating_sub(series.last_raw);
                    series.last_raw = sample.value;
                    delta
                }
                SampleKind::Gauge => sample.value,
            };
            if series.points.len() == self.capacity {
                series.points.pop_front();
            }
            series.points.push_back((unix_s, point));
        }
    }

    /// The ring of one series, oldest first (empty when unknown).
    pub fn series_points(&self, name: &str) -> Vec<(u64, u64)> {
        self.series.lock().get(name).map(|s| s.points.iter().copied().collect()).unwrap_or_default()
    }

    /// Renders the whole registry as the scrape-schema JSON object.
    pub fn to_json(&self) -> json::Value {
        let series = self
            .series
            .lock()
            .iter()
            .map(|(name, s)| {
                let points = s
                    .points
                    .iter()
                    .map(|&(t, v)| {
                        json::Value::Arr(vec![json::Value::UInt(t), json::Value::UInt(v)])
                    })
                    .collect();
                (
                    name.clone(),
                    json::Value::obj([
                        ("kind", json::Value::str(s.kind.as_str())),
                        ("points", json::Value::Arr(points)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        json::Value::obj([
            ("resolution_ms", json::Value::UInt(self.resolution.as_millis() as u64)),
            ("capacity", json::Value::UInt(self.capacity as u64)),
            ("series", json::Value::Obj(series)),
        ])
    }

    /// Spawns the sampler thread, ticking every resolution interval until
    /// the returned handle drops. The first tick comes one interval after
    /// the start, so a caller's own [`Self::sample_at`] calls are not
    /// interleaved with a sample taken the moment the thread gets to run.
    pub fn start_sampler(self: &Arc<Self>) -> SamplerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let registry = self.clone();
        let flag = stop.clone();
        let join = std::thread::Builder::new()
            .name("sentinel-telemetry".into())
            .spawn(move || loop {
                // Sleep in small slices so drop doesn't block a full
                // interval.
                let mut left = registry.resolution;
                while !left.is_zero() && !flag.load(Ordering::Relaxed) {
                    let slice = left.min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                registry.sample_now();
            })
            .ok();
        SamplerHandle { stop, join }
    }
}

/// Stops the sampler thread when dropped.
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            if join.thread().id() != std::thread::current().id() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn counters_fold_to_deltas_and_gauges_to_levels() {
        let hits = Arc::new(Counter::new());
        let c = hits.clone();
        let reg = TimeSeriesRegistry::new(Duration::from_secs(1), 8, move || {
            vec![Sample::counter("hits", c.get()), Sample::gauge("depth", 5)]
        });
        hits.add(10);
        reg.sample_at(100);
        hits.add(3);
        reg.sample_at(101);
        reg.sample_at(102);
        // First tick establishes the baseline (delta 0), then per-tick
        // deltas.
        assert_eq!(reg.series_points("hits"), vec![(100, 0), (101, 3), (102, 0)]);
        assert_eq!(reg.series_points("depth"), vec![(100, 5), (101, 5), (102, 5)]);
        assert_eq!(reg.series_points("unknown"), vec![]);
    }

    #[test]
    fn ring_is_bounded_at_capacity() {
        let reg =
            TimeSeriesRegistry::new(Duration::from_secs(1), 3, || vec![Sample::gauge("g", 1)]);
        for t in 0..10 {
            reg.sample_at(t);
        }
        let points = reg.series_points("g");
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].0, 7, "oldest retained tick");
    }

    #[test]
    fn json_snapshot_has_the_scrape_schema() {
        let reg =
            TimeSeriesRegistry::new(Duration::from_secs(1), 4, || vec![Sample::counter("c", 7)]);
        reg.sample_at(42);
        let j = reg.to_json();
        assert_eq!(j.get("capacity").and_then(json::Value::as_u64), Some(4));
        let series = j.get("series").unwrap();
        let c = series.get("c").unwrap();
        assert_eq!(c.get("kind").and_then(json::Value::as_str), Some("counter"));
        let points = c.get("points").and_then(json::Value::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        // Round-trips through the parser.
        assert_eq!(json::Value::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let reg = TimeSeriesRegistry::new(Duration::from_millis(5), 64, || {
            vec![Sample::gauge("tick", 1)]
        });
        let handle = reg.start_sampler();
        for _ in 0..200 {
            if reg.series_points("tick").len() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(reg.series_points("tick").len() >= 2, "sampler must tick");
        drop(handle);
    }
}
