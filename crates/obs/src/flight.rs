//! The crash flight recorder: an always-on, bounded ring of the last N
//! notable events — signals accepted, fences cut, rule firings, Busy
//! rejections, checkpoint cuts — so a post-mortem can see what the
//! process was doing in its final seconds.
//!
//! Recording is allocation-free on the hot path: the ring slots are
//! preallocated, a record is one atomic fetch-add to claim a sequence
//! number plus one short per-slot mutex (different slots never contend),
//! and a [`FlightLabel`] is either a `&'static str` or an `Arc<str>`
//! clone (a refcount bump). A caller recording several events at once
//! reads the wall clock once for all of them ([`FlightRecorder::record_at`]).
//! Torn global order is impossible: slots are written independently and
//! snapshots sort by sequence number.
//!
//! Persistence has three triggers:
//!
//! * **panic** — [`install_panic_hook`] chains the previous hook and
//!   dumps the global ring to `flight-recorder.json`;
//! * **periodic** — the durable engine's committer thread calls
//!   [`FlightRecorder::dump_if_dirty`] (time-throttled) after group
//!   commits, so even a SIGKILL leaves a dump at most a throttle window
//!   stale;
//! * **recovery** — `open_durable` reads the previous incarnation's dump
//!   and merges it into `recovery-report.json`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::SystemTime;

use parking_lot::Mutex;

use crate::json;

/// File name of the flight-recorder dump.
pub const FLIGHT_RECORDER_FILE: &str = "flight-recorder.json";

/// Ring capacity of the process-global recorder.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// What kind of notable event a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A primitive signal was accepted by the detector (`a` = timestamp,
    /// `b` = transaction id or 0).
    Signal,
    /// A whole-graph fence was cut (`a` = timestamp, `b` = fence arg).
    Fence,
    /// A rule fired (`a` = timestamp, `b` = 0 immediate / 1 deferred /
    /// 2 detached).
    RuleFired,
    /// The server rejected a frame with Busy (`a` = in-flight count).
    Busy,
    /// A checkpoint was cut (`a` = journal tag, `b` = bytes).
    Checkpoint,
    /// A recovery pass ran (`a` = replayed records, `b` = catalog ops).
    Recovery,
    /// The process began a graceful shutdown.
    Shutdown,
    /// A panic reached the hook.
    Panic,
    /// A primary served a replication frame slice to a follower
    /// (`a` = from-sequence, `b` = entries shipped).
    Ship,
    /// A follower acknowledged an apply watermark (`a` = applied).
    Ack,
    /// A follower bootstrapped from a primary snapshot
    /// (`a` = base sequence, `b` = catalog ops shipped).
    CatchUp,
    /// A follower was promoted to primary (`a` = applied watermark).
    Promote,
}

impl FlightKind {
    /// Stable lowercase name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Signal => "signal",
            FlightKind::Fence => "fence",
            FlightKind::RuleFired => "rule_fired",
            FlightKind::Busy => "busy",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::Recovery => "recovery",
            FlightKind::Shutdown => "shutdown",
            FlightKind::Panic => "panic",
            FlightKind::Ship => "ship",
            FlightKind::Ack => "ack",
            FlightKind::CatchUp => "catch_up",
            FlightKind::Promote => "promote",
        }
    }
}

/// The label of a [`FlightEvent`]: a static string, or a shared one
/// (an event, rule or connection name). Either way it reads as a `str`.
#[derive(Debug, Clone)]
pub enum FlightLabel {
    /// A label fixed at compile time.
    Static(&'static str),
    /// A label shared with its owner.
    Shared(Arc<str>),
}

impl std::ops::Deref for FlightLabel {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            FlightLabel::Static(s) => s,
            FlightLabel::Shared(s) => s,
        }
    }
}

impl From<&'static str> for FlightLabel {
    fn from(s: &'static str) -> Self {
        FlightLabel::Static(s)
    }
}

impl From<Arc<str>> for FlightLabel {
    fn from(s: Arc<str>) -> Self {
        FlightLabel::Shared(s)
    }
}

/// One recorded notable event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotone sequence number (total recorded, including overwritten).
    pub seq: u64,
    /// Wall-clock microseconds since the unix epoch.
    pub unix_us: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Event/rule/fence label.
    pub label: FlightLabel,
    /// Kind-specific detail (usually a timestamp).
    pub a: u64,
    /// Kind-specific detail.
    pub b: u64,
}

impl FlightEvent {
    fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("seq", json::Value::UInt(self.seq)),
            ("unix_us", json::Value::UInt(self.unix_us)),
            ("kind", json::Value::str(self.kind.as_str())),
            ("label", json::Value::str(&*self.label)),
            ("a", json::Value::UInt(self.a)),
            ("b", json::Value::UInt(self.b)),
        ])
    }
}

/// The bounded ring. One per process in practice (see [`global`]), but
/// constructible standalone for tests.
pub struct FlightRecorder {
    next: AtomicU64,
    slots: Box<[Mutex<Option<FlightEvent>>]>,
    last_dump: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.next.load(Ordering::Relaxed))
            .finish()
    }
}

/// Wall-clock microseconds since the unix epoch, the stamp
/// [`FlightRecorder::record_at`] takes.
pub fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

impl FlightRecorder {
    /// A recorder with `capacity` preallocated slots.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            next: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            last_dump: AtomicU64::new(0),
        }
    }

    /// Total events ever recorded (= next sequence number).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records one event, stamped now. The label is an `Arc` clone — no
    /// allocation.
    pub fn record(&self, kind: FlightKind, label: Arc<str>, a: u64, b: u64) {
        self.record_at(unix_us(), kind, label.into(), a, b);
    }

    /// Records one event with a static label.
    pub fn record_static(&self, kind: FlightKind, label: &'static str, a: u64, b: u64) {
        self.record_at(unix_us(), kind, label.into(), a, b);
    }

    /// Records one event stamped `unix_us` (from [`unix_us`]), so that
    /// events recorded together share one clock read.
    pub fn record_at(&self, unix_us: u64, kind: FlightKind, label: FlightLabel, a: u64, b: u64) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock() = Some(FlightEvent { seq, unix_us, kind, label, a, b });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Renders the ring as a JSON object:
    /// `{"capacity":..,"recorded":..,"dropped":..,"events":[..]}`.
    pub fn to_json(&self) -> json::Value {
        let events = self.snapshot();
        let dropped = self.recorded().saturating_sub(events.len() as u64);
        json::Value::obj([
            ("capacity", json::Value::UInt(self.slots.len() as u64)),
            ("recorded", json::Value::UInt(self.recorded())),
            ("dropped", json::Value::UInt(dropped)),
            ("events", json::Value::Arr(events.iter().map(FlightEvent::to_json).collect())),
        ])
    }

    /// Writes the ring to `path` (tmp + rename, so a crash mid-dump
    /// leaves the previous dump intact).
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        let seq = self.recorded();
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, format!("{}\n", self.to_json()))?;
        std::fs::rename(&tmp, path)?;
        self.last_dump.store(seq, Ordering::Relaxed);
        Ok(())
    }

    /// Dumps only if events were recorded since the last dump; returns
    /// whether a dump was written.
    pub fn dump_if_dirty(&self, path: &Path) -> io::Result<bool> {
        if self.recorded() == self.last_dump.load(Ordering::Relaxed) {
            return Ok(false);
        }
        self.dump_to(path)?;
        Ok(true)
    }
}

/// The process-global recorder every subsystem records into.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

/// Installs (once) a panic hook that records the panic and dumps the
/// global ring to `path`, then chains to the previous hook.
pub fn install_panic_hook(path: std::path::PathBuf) {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            global().record_static(FlightKind::Panic, "panic", 0, 0);
            let _ = global().dump_to(&path);
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(FlightKind::Signal, label("ev"), i, 0);
        }
        let events = fr.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(events.iter().map(|e| e.a).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(fr.recorded(), 10);
    }

    #[test]
    fn json_dump_shape() {
        let fr = FlightRecorder::new(8);
        fr.record_static(FlightKind::Checkpoint, "checkpoint", 42, 512);
        fr.record_static(FlightKind::Checkpoint, "checkpoint", 43, 256);
        let j = fr.to_json();
        assert_eq!(j.get("capacity").and_then(json::Value::as_u64), Some(8));
        assert_eq!(j.get("recorded").and_then(json::Value::as_u64), Some(2));
        assert_eq!(j.get("dropped").and_then(json::Value::as_u64), Some(0));
        let events = j.get("events").and_then(json::Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").and_then(json::Value::as_str), Some("checkpoint"));
        assert_eq!(events[0].get("a").and_then(json::Value::as_u64), Some(42));
        // Round-trips through the parser (what recovery merging does).
        assert_eq!(json::Value::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn dump_if_dirty_throttles_on_no_news() {
        let dir = std::env::temp_dir().join(format!("sentinel-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FLIGHT_RECORDER_FILE);
        let fr = FlightRecorder::new(8);
        assert!(!fr.dump_if_dirty(&path).unwrap(), "empty ring is clean");
        fr.record(FlightKind::Busy, label("conn"), 1, 0);
        assert!(fr.dump_if_dirty(&path).unwrap());
        assert!(!fr.dump_if_dirty(&path).unwrap(), "no new events since dump");
        fr.record(FlightKind::Busy, label("conn"), 2, 0);
        assert!(fr.dump_if_dirty(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = json::Value::parse(text.trim()).unwrap();
        assert_eq!(parsed.get("recorded").and_then(json::Value::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn static_labels_need_no_cache() {
        let fr = FlightRecorder::new(8);
        fr.record_static(FlightKind::Fence, "barrier", 0, 0);
        fr.record_at(7, FlightKind::RuleFired, label("rule").into(), 1, 0);
        let events = fr.snapshot();
        assert!(matches!(events[0].label, FlightLabel::Static("barrier")));
        assert_eq!((&*events[1].label, events[1].unix_us), ("rule", 7));
        let dumped = fr.to_json().to_string();
        assert!(dumped.contains(r#""kind":"fence","label":"barrier""#), "{dumped}");
    }
}
