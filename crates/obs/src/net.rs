//! Network-layer observability: counters for the `sentinel-net`
//! client/server subsystem.
//!
//! The server owns one [`NetMetrics`] and bumps it from every event
//! loop (all counters are relaxed atomics, same discipline as the rest
//! of this crate) and hands it to the system it serves, whose
//! `SentinelStats` carries [`NetMetrics::to_json`] as the `net` section.

use crate::{json, Counter, Gauge};

/// Live counters for one network server.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections_opened: Counter,
    /// Connections refused because the acceptor pool was full.
    pub connections_refused: Counter,
    /// Currently-open connections (with high-watermark).
    pub connections_active: Gauge,
    /// Sessions authenticated by name (`Hello` accepted).
    pub sessions: Counter,
    /// Well-formed frames read from clients.
    pub frames_in: Counter,
    /// Frames written to clients (responses).
    pub frames_out: Counter,
    /// Bytes read from clients (framed traffic only).
    pub bytes_in: Counter,
    /// Bytes written to clients.
    pub bytes_out: Counter,
    /// Malformed/oversized/unknown frames (connection is closed after one).
    pub decode_errors: Counter,
    /// Signals rejected with a `Busy` frame by backpressure limits.
    pub busy_rejections: Counter,
    /// Event loops the reactor runs.
    pub event_loops: Gauge,
    /// `epoll_wait` returns across all reactor loops.
    pub epoll_wakeups: Counter,
    /// `write(2)` calls that sent bytes, `EPOLLOUT` resumptions included.
    /// The reactor writes once per read, so `frames_out ÷ write_calls` is
    /// the replies each write carries.
    pub write_calls: Counter,
    /// Writes that could not complete in one syscall and left bytes queued
    /// for `EPOLLOUT` resumption.
    pub partial_writes: Counter,
    /// Connections evicted because a mid-frame read or a pending write
    /// made no progress for the stall timeout (half-open/SIGSTOP'd peers).
    pub stall_evictions: Counter,
    /// Connections evicted because their bounded write queue overflowed
    /// (a peer requesting faster than it reads).
    pub overflow_evictions: Counter,
    /// Deepest per-connection write queue observed, in bytes.
    pub write_queue_hwm: Gauge,
}

impl NetMetrics {
    /// Renders the `net` stats section. `pid` is the serving process,
    /// so an external load generator can sample its RSS from `/proc`.
    pub fn to_json(&self) -> json::Value {
        let u = json::Value::UInt;
        json::Value::obj([
            ("connections_opened", u(self.connections_opened.get())),
            ("connections_refused", u(self.connections_refused.get())),
            ("connections_active", u(self.connections_active.get())),
            ("connections_hwm", u(self.connections_active.high_watermark())),
            ("sessions", u(self.sessions.get())),
            ("frames_in", u(self.frames_in.get())),
            ("frames_out", u(self.frames_out.get())),
            ("bytes_in", u(self.bytes_in.get())),
            ("bytes_out", u(self.bytes_out.get())),
            ("decode_errors", u(self.decode_errors.get())),
            ("busy_rejections", u(self.busy_rejections.get())),
            ("event_loops", u(self.event_loops.get())),
            ("epoll_wakeups", u(self.epoll_wakeups.get())),
            ("write_calls", u(self.write_calls.get())),
            ("partial_writes", u(self.partial_writes.get())),
            ("stall_evictions", u(self.stall_evictions.get())),
            ("overflow_evictions", u(self.overflow_evictions.get())),
            ("write_queue_hwm", u(self.write_queue_hwm.high_watermark())),
            ("pid", u(u64::from(std::process::id()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters_and_hwm() {
        let m = NetMetrics::default();
        m.connections_opened.inc();
        m.connections_active.set(3);
        m.connections_active.set(1);
        m.frames_in.add(10);
        m.busy_rejections.inc();
        let j = m.to_json();
        let get = |k: &str| j.get(k).and_then(json::Value::as_u64);
        assert_eq!(get("connections_opened"), Some(1));
        assert_eq!(get("connections_active"), Some(1));
        assert_eq!(get("connections_hwm"), Some(3));
        assert_eq!(get("frames_in"), Some(10));
        assert_eq!(get("busy_rejections"), Some(1));
    }

    #[test]
    fn json_shape_is_stable() {
        let m = NetMetrics::default();
        m.frames_in.add(2);
        let j = m.to_json();
        assert_eq!(j.get("frames_in").and_then(json::Value::as_u64), Some(2));
        assert_eq!(j.get("decode_errors").and_then(json::Value::as_u64), Some(0));
        assert_eq!(j.get("pid").and_then(json::Value::as_u64), Some(u64::from(std::process::id())));
    }
}
