//! The Sentinel network server: many clients, one shared active DBMS.
//!
//! Sockets are served by an epoll reactor: [`ServerConfig::event_loops`]
//! event loops multiplexing nonblocking sockets — see `crate::reactor`.
//! Connections cost a few KiB of buffers, not a thread. The command set
//! lives in `crate::commands`, apart from any socket.
//!
//! One *async pump* thread routes queued signals into a
//! [`DetectorPool`] of [`ServerConfig::detector_threads`] workers — the
//! paper's Figure 2 separation of detection from application execution,
//! applied at the network boundary and scaled across event-graph shards.
//! Signals of one shard stay FIFO on one worker; disjoint shards detect
//! concurrently. A dispatcher thread drains pooled detections into the
//! rule scheduler so slow rule actions never stall signal intake.
//!
//! Request handling per connection is serial, but clients pipeline: every
//! frame carries a request id and responses echo it, so a client may have
//! many requests outstanding on one socket. A session's `Hello` arrives in
//! v1 JSON and every later frame in v2 binary; the decoder takes either
//! per frame and the server answers each in the version it arrived in.
//!
//! Backpressure is explicit, never unbounded queueing:
//!
//! * **sync signals** (and [`crate::protocol::Opcode::SignalBatch`]
//!   frames, each counting as one unit) run inline and are capped
//!   globally ([`ServerConfig::max_inflight_global`]) — past the cap the
//!   server answers `Busy {"scope": "global"}`;
//! * **async signals** enter a bounded queue drained by the pump; a full
//!   queue is a global `Busy`, and each session is further capped at
//!   [`ServerConfig::max_inflight_per_session`] queued signals
//!   (`Busy {"scope": "session"}`);
//! * each connection's **write queue** is bounded
//!   ([`ServerConfig::max_write_queue`]), and peers that stall mid-frame
//!   or mid-write past [`ServerConfig::stall_timeout`] are evicted.
//!
//! Graceful shutdown (client `Shutdown` frame or [`NetServer::shutdown`])
//! stops accepting, joins the event loops, closes the async queue so the
//! pump drains it, and finally calls [`DetectorPool::shutdown`], which
//! processes everything still queued on every worker before joining them
//! (and the dispatcher drains the last detections).

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sentinel_core::ServeHandle;
use sentinel_detector::service::Signal;
use sentinel_detector::DetectorPool;
use sentinel_obs::span;
use sentinel_obs::span::Field;
use sentinel_obs::NetMetrics;

use crate::reactor::Reactor;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Maximum concurrently open connections; further connects receive an
    /// error frame and are closed.
    pub max_connections: usize,
    /// Per-session cap on queued async signals.
    pub max_inflight_per_session: usize,
    /// Global cap on in-flight signals (inline sync + queued async).
    pub max_inflight_global: usize,
    /// Detector worker threads behind the async pump. Signals of one
    /// event-graph shard always run FIFO on one worker; more threads let
    /// disjoint shards detect concurrently.
    pub detector_threads: usize,
    /// Reactor event loops (at least one runs).
    pub event_loops: usize,
    /// Reactor: bytes of unsent responses a connection may accumulate
    /// before it is evicted (always at least one max-size frame).
    pub max_write_queue: usize,
    /// Reactor: a connection stuck mid-frame or mid-write longer than
    /// this is evicted; zero disables the scan. Idle connections are
    /// never evicted.
    pub stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_inflight_per_session: 128,
            max_inflight_global: 1024,
            detector_threads: 1,
            event_loops: 2,
            max_write_queue: 4 << 20,
            stall_timeout: Duration::from_secs(30),
        }
    }
}

/// A signal accepted from a `SignalAsync` frame, waiting for the pump.
pub(crate) struct AsyncJob {
    pub(crate) event: String,
    pub(crate) params: Vec<(Arc<str>, sentinel_detector::Value)>,
    pub(crate) txn: Option<u64>,
    pub(crate) trace: Option<u64>,
    /// The owning session's in-flight counter, decremented when processed.
    pub(crate) session_inflight: Arc<AtomicU64>,
}

/// State shared by every server thread (event loops and the pump).
pub(crate) struct State {
    pub(crate) handle: ServeHandle,
    pub(crate) cfg: ServerConfig,
    pub(crate) metrics: Arc<NetMetrics>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active_conns: AtomicU64,
    pub(crate) inflight_sync: AtomicU64,
    pub(crate) next_session: AtomicU64,
    pub(crate) async_tx: Mutex<Option<Sender<AsyncJob>>>,
    /// Signals a client-requested shutdown to [`NetServer::wait_for_shutdown`].
    pub(crate) shutdown_tx: Sender<()>,
}

/// A running server; dropping it shuts it down.
pub struct NetServer {
    state: Arc<State>,
    local_addr: SocketAddr,
    reactor: Mutex<Option<Reactor>>,
    pump: Mutex<Option<JoinHandle<()>>>,
    shutdown_rx: Receiver<()>,
}

impl NetServer {
    /// Binds `cfg.addr` and starts serving `handle`.
    pub fn start(handle: ServeHandle, cfg: ServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        // Publish the *actually bound* address on the system handle: with
        // port 0 in `cfg.addr` this is the only place the resolved port
        // exists, and in-process harnesses (two-node tests, embedded
        // servers) need it without parsing stdout.
        handle.sentinel().set_bound_addr(local_addr);
        let metrics = Arc::new(NetMetrics::default());
        let (async_tx, async_rx) = bounded::<AsyncJob>(cfg.max_inflight_global.max(1));
        let (shutdown_tx, shutdown_rx) = unbounded::<()>();
        let state = Arc::new(State {
            handle: handle.clone(),
            cfg,
            metrics: metrics.clone(),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            inflight_sync: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            async_tx: Mutex::new(Some(async_tx)),
            shutdown_tx,
        });

        let pool =
            DetectorPool::spawn(handle.sentinel().detector().clone(), state.cfg.detector_threads);
        // The system's stats — and so the `Stats` opcode, `/metrics` and
        // any telemetry sampler — carry this server's counters from here on.
        handle.sentinel().set_server_metrics(Some((metrics, pool.metrics().clone())));
        let pump_state = state.clone();
        let pump = std::thread::Builder::new()
            .name("sentinel-net-pump".into())
            .spawn(move || pump_loop(pool, async_rx, pump_state))
            .expect("spawn pump thread");

        let reactor = Reactor::start(listener, state.clone())?;

        Ok(NetServer {
            state,
            local_addr,
            reactor: Mutex::new(Some(reactor)),
            pump: Mutex::new(Some(pump)),
            shutdown_rx,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's network counters.
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.state.metrics
    }

    /// Blocks until a client sends a `Shutdown` frame, then shuts down.
    pub fn wait_for_shutdown(&self) {
        let _ = self.shutdown_rx.recv();
        self.shutdown();
    }

    /// Graceful shutdown: stop accepting, join the event loops, drain
    /// the async queue and the detector pool. Idempotent.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(reactor) = self.reactor.lock().take() {
            reactor.shutdown();
        }
        // Closing the queue lets the pump drain what is left, shut the
        // detector pool down (which drains *its* queues), and exit.
        *self.state.async_tx.lock() = None;
        if let Some(t) = self.pump.lock().take() {
            let _ = t.join();
        }
        // With every signal drained, persist the tail: force the journal
        // to disk and cut a final checkpoint so a restart replays nothing.
        // No-ops when the system is not durable.
        let sentinel = self.state.handle.sentinel();
        let _ = sentinel.flush_journal();
        let _ = sentinel.checkpoint_now();
        sentinel.set_server_metrics(None);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Routes accepted async signals to their shard's worker in the detector
/// pool. Detections stream back on the pool's channel and a dedicated
/// dispatcher thread feeds them to the rule scheduler, so a slow rule
/// action never blocks signal intake. A job's session in-flight counter is
/// decremented by a completion callback on the worker that processed it.
fn pump_loop(mut pool: DetectorPool, rx: Receiver<AsyncJob>, state: Arc<State>) {
    let det_rx = pool.detections().clone();
    let disp_state = state.clone();
    let dispatcher = std::thread::Builder::new()
        .name("sentinel-net-dispatch".into())
        .spawn(move || {
            while let Ok(d) = det_rx.recv() {
                disp_state.handle.dispatch(vec![d]);
            }
        })
        .expect("spawn dispatch thread");
    let spans = state.handle.sentinel().trace_store().clone();
    while let Ok(job) = rx.recv() {
        let sig = Signal::Explicit { name: job.event.clone(), params: job.params, txn: job.txn };
        let inflight = job.session_inflight;
        match job.trace.filter(|_| spans.is_enabled()) {
            Some(raw) => {
                let trace = spans.adopt_remote(raw);
                let h = spans.start(trace, None, "net_signal", Arc::from(job.event.as_str()));
                let store = spans.clone();
                // Submission captures the ambient span, so the worker's
                // detector spans join the client's trace; the net span
                // closes on the worker once the signal is processed.
                let _g = span::push_current(h.ctx);
                pool.signal_async_done(
                    sig,
                    Box::new(move || {
                        store.finish(h, 0, vec![("remote_trace", Field::U64(raw))]);
                        inflight.fetch_sub(1, Ordering::SeqCst);
                    }),
                );
            }
            None => pool.signal_async_done(
                sig,
                Box::new(move || {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                }),
            ),
        }
    }
    // Queue closed: graceful shutdown. Drain every worker queue, then
    // drop the pool so the detections channel closes and the dispatcher
    // exits after delivering the tail.
    pool.shutdown();
    drop(pool);
    let _ = dispatcher.join();
}
