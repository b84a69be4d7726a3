//! Network-layer observability: counters for the `sentinel-net`
//! client/server subsystem.
//!
//! The server owns one [`NetMetrics`] and bumps it from every event
//! loop (all counters are relaxed atomics, same discipline as the rest
//! of this crate); [`NetMetrics::snapshot`] produces the plain-data
//! [`NetStats`] that the server merges into the `SentinelStats` JSON as a
//! `net` section.

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
    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetStats {
        NetStats {
            connections_opened: self.connections_opened.get(),
            connections_refused: self.connections_refused.get(),
            connections_active: self.connections_active.get(),
            connections_hwm: self.connections_active.high_watermark(),
            sessions: self.sessions.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            decode_errors: self.decode_errors.get(),
            busy_rejections: self.busy_rejections.get(),
            event_loops: self.event_loops.get(),
            epoll_wakeups: self.epoll_wakeups.get(),
            partial_writes: self.partial_writes.get(),
            stall_evictions: self.stall_evictions.get(),
            overflow_evictions: self.overflow_evictions.get(),
            write_queue_hwm: self.write_queue_hwm.high_watermark(),
        }
    }
}

/// Plain-data snapshot of [`NetMetrics`] (the `net` stats section).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Connections refused because the acceptor pool was full.
    pub connections_refused: u64,
    /// Currently-open connections.
    pub connections_active: u64,
    /// Highest concurrent connection count observed.
    pub connections_hwm: u64,
    /// Sessions authenticated by name.
    pub sessions: u64,
    /// Well-formed frames read from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes written to clients.
    pub bytes_out: u64,
    /// Malformed/oversized/unknown frames seen.
    pub decode_errors: u64,
    /// Signals rejected with a `Busy` frame.
    pub busy_rejections: u64,
    /// Event loops the reactor backend runs.
    pub event_loops: u64,
    /// `epoll_wait` returns across all reactor loops.
    pub epoll_wakeups: u64,
    /// Writes resumed later under `EPOLLOUT`.
    pub partial_writes: u64,
    /// Connections evicted for stalling mid-frame or mid-write.
    pub stall_evictions: u64,
    /// Connections evicted for overflowing their bounded write queue.
    pub overflow_evictions: u64,
    /// Deepest per-connection write queue observed, in bytes.
    pub write_queue_hwm: u64,
}

impl NetStats {
    /// Renders as a JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("connections_opened", json::Value::UInt(self.connections_opened)),
            ("connections_refused", json::Value::UInt(self.connections_refused)),
            ("connections_active", json::Value::UInt(self.connections_active)),
            ("connections_hwm", json::Value::UInt(self.connections_hwm)),
            ("sessions", json::Value::UInt(self.sessions)),
            ("frames_in", json::Value::UInt(self.frames_in)),
            ("frames_out", json::Value::UInt(self.frames_out)),
            ("bytes_in", json::Value::UInt(self.bytes_in)),
            ("bytes_out", json::Value::UInt(self.bytes_out)),
            ("decode_errors", json::Value::UInt(self.decode_errors)),
            ("busy_rejections", json::Value::UInt(self.busy_rejections)),
            ("event_loops", json::Value::UInt(self.event_loops)),
            ("epoll_wakeups", json::Value::UInt(self.epoll_wakeups)),
            ("partial_writes", json::Value::UInt(self.partial_writes)),
            ("stall_evictions", json::Value::UInt(self.stall_evictions)),
            ("overflow_evictions", json::Value::UInt(self.overflow_evictions)),
            ("write_queue_hwm", json::Value::UInt(self.write_queue_hwm)),
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
        let s = m.snapshot();
        assert_eq!(s.connections_opened, 1);
        assert_eq!(s.connections_active, 1);
        assert_eq!(s.connections_hwm, 3);
        assert_eq!(s.frames_in, 10);
        assert_eq!(s.busy_rejections, 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let s = NetStats { frames_in: 2, ..NetStats::default() };
        let j = s.to_json();
        assert_eq!(j.get("frames_in").and_then(json::Value::as_u64), Some(2));
        assert_eq!(j.get("decode_errors").and_then(json::Value::as_u64), Some(0));
    }
}
