//! Detector worker pool: the thread-based separation of composite event
//! detection from application execution (Figure 2).
//!
//! The paper separates the local composite event detector from the
//! application using threads because "threads communicate via shared memory
//! …, the overhead involved in creating threads and inter-task communication
//! is low, and it is easy to control the scheduling" (§2.3). Here the
//! detector runs on worker threads behind crossbeam channels:
//!
//! * [`DetectorPool::signal_sync`] mirrors the immediate-mode protocol —
//!   "when a primitive event occurs it is sent to the local composite event
//!   detector and the application waits for the signaling of a composite
//!   event that is detected in the immediate mode";
//! * [`DetectorPool::signal_async`] queues the event and returns; the
//!   detections are delivered on [`DetectorPool::detections`] (used by
//!   batch feeds and the network server's pump).
//!
//! [`DetectorPool::spawn`]`(det, 1)` is the paper's single detector
//! thread; more workers scale the same protocol across shards, each
//! owning the FIFO queue of the shard labels hashed to it, so signals of
//! one shard are processed in submission order while disjoint shards
//! propagate concurrently. Whole-graph operations (transaction flushes,
//! time advances, DDL, checkpoint pauses) run at a rendezvous barrier:
//! every worker parks after draining its queue, the submitting thread
//! performs the operation against the quiesced detector, and the workers
//! resume.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use sentinel_obs::span::{self, SpanContext};
use sentinel_obs::{json, Counter, Gauge, Histogram};
use sentinel_snoop::ast::EventModifier;

use crate::clock::Timestamp;
use crate::detector::{Detection, LocalEventDetector, Paused, QueueGauge};
use crate::occurrence::Value;

/// Callback invoked on the worker thread after a pooled signal has been
/// fully processed and its detections delivered (the network server's
/// in-flight accounting hook).
pub type DoneCallback = Box<dyn FnOnce() + Send>;

/// A one-shot all-workers rendezvous: each worker arrives and parks; the
/// coordinating thread waits for full attendance, performs its operation,
/// then releases everyone.
struct Rendezvous {
    workers: usize,
    /// `(arrived, released)`.
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Rendezvous {
    fn new(workers: usize) -> Self {
        Rendezvous { workers, state: Mutex::new((0, false)), cv: Condvar::new() }
    }

    /// Worker side: check in and park until released.
    fn arrive(&self) {
        let mut st = self.state.lock();
        st.0 += 1;
        self.cv.notify_all();
        while !st.1 {
            self.cv.wait(&mut st);
        }
    }

    /// Coordinator side: block until every worker has arrived.
    fn wait_all_arrived(&self) {
        let mut st = self.state.lock();
        while st.0 < self.workers {
            self.cv.wait(&mut st);
        }
    }

    /// Coordinator side: resume all parked workers.
    fn release(&self) {
        let mut st = self.state.lock();
        st.1 = true;
        self.cv.notify_all();
    }
}

/// Counters for the pool's signal queues: depth (with high-watermark),
/// signals processed, and the latency from enqueue to the end of
/// processing on a worker.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Request-queue depth, sampled on every enqueue/dequeue.
    pub queue_depth: Gauge,
    /// Requests fully processed by the workers.
    pub processed: Counter,
    /// Enqueue-to-processed latency per request, ns.
    pub drain_latency_ns: Histogram,
}

impl ServiceMetrics {
    /// Renders the `service` stats section a serving system carries.
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("queue_depth", json::Value::UInt(self.queue_depth.get())),
            ("processed", json::Value::UInt(self.processed.get())),
            ("drain_latency", self.drain_latency_ns.snapshot().to_json()),
        ])
    }
}

/// A primitive-event signal sent to the pool.
#[derive(Debug)]
pub enum Signal {
    /// Wrapper-method notification.
    Method {
        /// Class of the invoked method.
        class: String,
        /// Canonical method signature.
        sig: String,
        /// Invocation edge.
        edge: EventModifier,
        /// Receiver object.
        oid: u64,
        /// Collected parameters.
        params: Vec<(Arc<str>, Value)>,
        /// Enclosing transaction.
        txn: Option<u64>,
    },
    /// Explicit event by name.
    Explicit {
        /// Event name.
        name: String,
        /// Attached parameters.
        params: Vec<(Arc<str>, Value)>,
        /// Enclosing transaction.
        txn: Option<u64>,
    },
    /// Flush all events of a transaction (commit/abort).
    FlushTxn(u64),
    /// Advance logical time (fires temporal alarms).
    AdvanceTime(Timestamp),
}

// --- sharded worker pool ------------------------------------------------

enum PoolRequest {
    /// One routed signal. `at` pre-assigns the timestamp (deterministic
    /// replay/conformance drivers); `None` ticks the clock live on the
    /// worker, under the shard's mutex. `queued` is the queue gauge of
    /// the shard the signal was routed by, raised on submission.
    Signal {
        sig: Signal,
        at: Option<Timestamp>,
        queued: QueueGauge,
        enqueued: Instant,
        span: Option<SpanContext>,
        reply: Option<Sender<Vec<Detection>>>,
        done: Option<DoneCallback>,
    },
    /// Park at an all-workers rendezvous (flushes, time advances, DDL,
    /// checkpoint pauses).
    Barrier(Arc<Rendezvous>),
    Shutdown,
}

struct PoolWorker {
    requests: Sender<PoolRequest>,
    thread: Option<JoinHandle<()>>,
}

/// A pool of detector workers with per-shard FIFO routing.
///
/// Each signal is routed by its shard label (`label % workers` picks the
/// queue), so signals of one shard are processed in submission order by
/// one worker — preserving the order the shard's operators depend on —
/// while signals of disjoint shards propagate concurrently on different
/// workers, each under its own shard's mutex.
///
/// Whole-graph operations go through [`DetectorPool::barrier`]: all
/// workers drain their queues and park, the submitting thread runs the
/// operation, and the workers resume. [`Signal::FlushTxn`] and
/// [`Signal::AdvanceTime`] submitted through the signal API are routed to
/// a barrier automatically (they are global fences by definition).
///
/// DDL performed directly against the detector while the pool is running
/// is safe (the graph write lock excludes in-flight signals) but gives no
/// ordering guarantee against queued signals; drivers that need a
/// deterministic cut — e.g. defining a composite that bridges two shards
/// mid-stream — should perform the DDL inside [`DetectorPool::barrier`].
pub struct DetectorPool {
    detector: Arc<LocalEventDetector>,
    workers: Vec<PoolWorker>,
    detections: Receiver<Detection>,
    det_tx: Sender<Detection>,
    metrics: Arc<ServiceMetrics>,
    /// Serializes barrier fan-out so two coordinators cannot interleave
    /// their park requests across worker queues (which would deadlock:
    /// each barrier would wait on workers parked in the other).
    barrier_lock: Mutex<()>,
}

impl DetectorPool {
    /// Spawns `workers` detector worker threads around `detector`.
    pub fn spawn(detector: Arc<LocalEventDetector>, workers: usize) -> Self {
        let workers = workers.max(1);
        let (det_tx, det_rx) = unbounded::<Detection>();
        let metrics = Arc::new(ServiceMetrics::default());
        let pool_workers = (0..workers)
            .map(|i| {
                let (req_tx, req_rx) = unbounded::<PoolRequest>();
                let det = detector.clone();
                let out = det_tx.clone();
                let m = metrics.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("sentinel-detector-{}-w{i}", detector.app()))
                    .spawn(move || Self::worker_loop(&det, &req_rx, &out, &m))
                    .expect("spawn detector pool worker");
                PoolWorker { requests: req_tx, thread: Some(thread) }
            })
            .collect();
        DetectorPool {
            detector,
            workers: pool_workers,
            detections: det_rx,
            det_tx,
            metrics,
            barrier_lock: Mutex::new(()),
        }
    }

    fn worker_loop(
        det: &LocalEventDetector,
        requests: &Receiver<PoolRequest>,
        out: &Sender<Detection>,
        metrics: &ServiceMetrics,
    ) {
        while let Ok(req) = requests.recv() {
            match req {
                PoolRequest::Signal { sig, at, queued, enqueued, span, reply, done } => {
                    queued.fetch_sub(1, Ordering::Relaxed);
                    metrics.queue_depth.set(requests.len() as u64);
                    let dets = {
                        let _guard = span.map(span::push_current);
                        Self::process_at(det, sig, at)
                    };
                    match reply {
                        Some(tx) => {
                            let _ = tx.send(dets);
                        }
                        None => {
                            for d in dets {
                                let _ = out.send(d);
                            }
                        }
                    }
                    if let Some(done) = done {
                        done();
                    }
                    metrics.processed.inc();
                    metrics.drain_latency_ns.record_duration(enqueued.elapsed());
                }
                PoolRequest::Barrier(rz) => rz.arrive(),
                PoolRequest::Shutdown => break,
            }
        }
    }

    fn process_at(det: &LocalEventDetector, sig: Signal, at: Option<Timestamp>) -> Vec<Detection> {
        match sig {
            Signal::Method { class, sig, edge, oid, params, txn } => match at {
                // Live even with a pre-assigned timestamp: pool-delivered
                // signals must reach the sink (only journal *replay* is
                // not live).
                Some(ts) => det.notify_method_at(&class, &sig, edge, oid, &params, txn, ts, true),
                None => det.notify_method(&class, &sig, edge, oid, &params, txn),
            },
            Signal::Explicit { name, params, txn } => match at {
                Some(ts) => det.signal_explicit_at(&name, params, txn, ts, true),
                None => det.signal_explicit(&name, params, txn),
            },
            // Routed to a barrier by submit(); unreachable on workers.
            Signal::FlushTxn(txn) => {
                det.flush_txn(txn);
                Vec::new()
            }
            Signal::AdvanceTime(ts) => det.advance_time(ts),
        }
    }

    /// The shared detector (for definitions and subscriptions).
    pub fn detector(&self) -> &Arc<LocalEventDetector> {
        &self.detector
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stream of detections from async signals.
    pub fn detections(&self) -> &Receiver<Detection> {
        &self.detections
    }

    /// Queue/latency counters for this pool (aggregated over workers).
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The shard label a signal routes by and that shard's queue gauge
    /// (declaring unknown explicit events so routing stays stable from
    /// the first submission).
    fn route(&self, sig: &Signal) -> (u32, QueueGauge) {
        match sig {
            Signal::Method { class, .. } => self.detector.route_class(class),
            Signal::Explicit { name, .. } => self.detector.route_event(name),
            // Global fences carry no shard; submit() routes them to a
            // barrier instead.
            Signal::FlushTxn(_) | Signal::AdvanceTime(_) => (0, QueueGauge::default()),
        }
    }

    fn submit(
        &self,
        sig: Signal,
        at: Option<Timestamp>,
        reply: Option<Sender<Vec<Detection>>>,
        done: Option<DoneCallback>,
    ) {
        match sig {
            Signal::FlushTxn(txn) => {
                self.barrier(|det| det.flush_txn(txn));
                if let Some(tx) = reply {
                    let _ = tx.send(Vec::new());
                }
                if let Some(done) = done {
                    done();
                }
            }
            Signal::AdvanceTime(ts) => {
                let dets = self.barrier(|det| det.advance_time(ts));
                match reply {
                    Some(tx) => {
                        let _ = tx.send(dets);
                    }
                    None => {
                        for d in dets {
                            let _ = self.det_tx.send(d);
                        }
                    }
                }
                if let Some(done) = done {
                    done();
                }
            }
            sig => {
                let (label, queued) = self.route(&sig);
                let worker = &self.workers[label as usize % self.workers.len()];
                queued.fetch_add(1, Ordering::Relaxed);
                let req = PoolRequest::Signal {
                    sig,
                    at,
                    queued,
                    enqueued: Instant::now(),
                    span: span::current(),
                    reply,
                    done,
                };
                if let Err(unsent) = worker.requests.send(req) {
                    // Pool shut down; balance the gauge.
                    if let PoolRequest::Signal { queued, .. } = unsent.0 {
                        queued.fetch_sub(1, Ordering::Relaxed);
                    }
                } else {
                    self.metrics
                        .queue_depth
                        .set(self.workers.iter().map(|w| w.requests.len() as u64).sum::<u64>());
                }
            }
        }
    }

    /// Sends a signal to its shard's worker and waits for its detections
    /// (immediate mode).
    pub fn signal_sync(&self, sig: Signal) -> Vec<Detection> {
        let (tx, rx) = bounded(1);
        self.submit(sig, None, Some(tx), None);
        rx.recv().unwrap_or_default()
    }

    /// Queues a signal on its shard's worker; detections arrive on
    /// [`Self::detections`].
    pub fn signal_async(&self, sig: Signal) {
        self.submit(sig, None, None, None);
    }

    /// Queues a signal with a pre-assigned timestamp (deterministic
    /// conformance drivers): the worker advances the shared clock to `ts`
    /// instead of ticking it.
    pub fn signal_async_at(&self, sig: Signal, ts: Timestamp) {
        self.submit(sig, Some(ts), None, None);
    }

    /// Queues a signal with a completion callback, invoked on the worker
    /// thread after the detections have been delivered (the network
    /// server's in-flight accounting).
    pub fn signal_async_done(&self, sig: Signal, done: DoneCallback) {
        self.submit(sig, None, None, Some(done));
    }

    /// Runs `f` against the detector with every worker drained and parked
    /// at a rendezvous: each worker's FIFO queue is processed to the
    /// barrier first, so `f` observes (and the operation applies at) a
    /// deterministic cut between everything submitted before and after.
    pub fn barrier<R>(&self, f: impl FnOnce(&LocalEventDetector) -> R) -> R {
        let _fan = self.barrier_lock.lock();
        let rz = Arc::new(Rendezvous::new(self.workers.len()));
        let mut sent = 0;
        for w in &self.workers {
            if w.requests.send(PoolRequest::Barrier(rz.clone())).is_ok() {
                sent += 1;
            }
        }
        if sent < self.workers.len() {
            // Pool shut down mid-fan-out: release any worker that did
            // receive the barrier and run the operation directly.
            rz.release();
            return f(&self.detector);
        }
        rz.wait_all_arrived();
        let out = f(&self.detector);
        rz.release();
        out
    }

    /// Runs `f` with the pool drained and signalling paused in every
    /// shard (see [`LocalEventDetector::with_signals_paused`]): the
    /// checkpoint-cut primitive for pooled deployments.
    pub fn with_paused<R>(&self, f: impl FnOnce(&Paused<'_>) -> R) -> R {
        self.barrier(|det| det.with_signals_paused(f))
    }

    /// Stops every worker after draining its queue. Idempotent; `Drop`
    /// delegates here.
    pub fn shutdown(&mut self) {
        for w in &self.workers {
            let _ = w.requests.send(PoolRequest::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for DetectorPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PrimTarget;
    use sentinel_snoop::{parse_event_expr, ParamContext};

    /// One worker: the paper's single detector thread.
    fn service() -> DetectorPool {
        let det = Arc::new(LocalEventDetector::new(1));
        det.declare_primitive("ev", "C", EventModifier::End, "void f()", PrimTarget::AnyInstance)
            .unwrap();
        DetectorPool::spawn(det, 1)
    }

    fn method_signal(txn: u64) -> Signal {
        Signal::Method {
            class: "C".into(),
            sig: "void f()".into(),
            edge: EventModifier::End,
            oid: 1,
            params: Vec::new(),
            txn: Some(txn),
        }
    }

    #[test]
    fn sync_signal_returns_detections_inline() {
        let svc = service();
        let ev = svc.detector().lookup("ev").unwrap();
        svc.detector().subscribe(ev, ParamContext::Recent, 9).unwrap();
        let dets = svc.signal_sync(method_signal(1));
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].subscribers, vec![9]);
    }

    #[test]
    fn async_signals_stream_detections() {
        let svc = service();
        let det = svc.detector();
        let expr = parse_event_expr("ev ; ev").unwrap();
        let seq = det.define_named("evev", &expr).unwrap();
        det.subscribe(seq, ParamContext::Chronicle, 4).unwrap();
        svc.signal_async(method_signal(1));
        svc.signal_async(method_signal(1));
        let d = svc
            .detections()
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("composite detection");
        assert_eq!(d.event, seq);
        assert_eq!(d.occurrence.param_list().len(), 2);
    }

    #[test]
    fn flush_via_channel_applies_in_order() {
        let svc = service();
        let det = svc.detector();
        let expr = parse_event_expr("ev ; ev").unwrap();
        let seq = det.define_named("evev", &expr).unwrap();
        det.subscribe(seq, ParamContext::Chronicle, 4).unwrap();
        svc.signal_async(method_signal(7));
        svc.signal_async(Signal::FlushTxn(7));
        let dets = svc.signal_sync(method_signal(8));
        assert!(dets.is_empty(), "initiator of T7 flushed before T8's event");
    }

    #[test]
    fn shutdown_on_drop_is_clean() {
        let svc = service();
        drop(svc); // must not hang or panic
    }

    #[test]
    fn shutdown_drains_queued_signals_before_join() {
        let mut svc = service();
        let det = svc.detector().clone();
        let ev = det.lookup("ev").unwrap();
        det.subscribe(ev, ParamContext::Recent, 9).unwrap();
        const K: u64 = 64;
        for _ in 0..K {
            svc.signal_async(method_signal(1));
        }
        svc.shutdown();
        assert_eq!(svc.metrics().processed.get(), K, "every queued signal processed");
        assert_eq!(svc.detections().try_iter().count(), K as usize, "no detection lost");
        // Idempotent: a second shutdown (and the eventual drop) is a no-op.
        svc.shutdown();
        assert_eq!(svc.metrics().processed.get(), K);
    }

    #[test]
    fn service_with_paused_drains_queue_before_closure() {
        let svc = service();
        let det = svc.detector().clone();
        let ev = det.lookup("ev").unwrap();
        det.subscribe(ev, ParamContext::Recent, 9).unwrap();
        const K: u64 = 128;
        for _ in 0..K {
            svc.signal_async(method_signal(1));
        }
        let processed = svc.with_paused(|_| svc.metrics().processed.get());
        assert_eq!(processed, K, "park request sorts behind every queued signal");
    }

    #[test]
    fn pool_routes_disjoint_shards_and_preserves_shard_order() {
        let det = Arc::new(LocalEventDetector::new(2));
        for name in ["a1", "b1", "a2", "b2"] {
            det.declare_explicit(name);
        }
        let s1 = det.define_named("s1", &parse_event_expr("a1 ; b1").unwrap()).unwrap();
        let s2 = det.define_named("s2", &parse_event_expr("a2 ; b2").unwrap()).unwrap();
        for ctx in ParamContext::ALL {
            det.subscribe(s1, ctx, 1).unwrap();
            det.subscribe(s2, ctx, 2).unwrap();
        }
        let mut pool = DetectorPool::spawn(det, 4);
        const PAIRS: usize = 50;
        for _ in 0..PAIRS {
            for name in ["a1", "a2", "b1", "b2"] {
                pool.signal_async(Signal::Explicit {
                    name: name.into(),
                    params: Vec::new(),
                    txn: None,
                });
            }
        }
        pool.shutdown();
        let dets: Vec<Detection> = pool.detections().try_iter().collect();
        let per = |ev| dets.iter().filter(|d| d.event == ev).count();
        // Recent/Chronicle/Continuous/Cumulative each detect every strictly
        // alternating a;b pair exactly once.
        assert_eq!(per(s1), 4 * PAIRS, "no s1 pair lost or doubled");
        assert_eq!(per(s2), 4 * PAIRS, "no s2 pair lost or doubled");
    }

    #[test]
    fn queue_depth_returns_to_zero_after_a_merge_of_queued_shards() {
        let det = Arc::new(LocalEventDetector::new(2));
        det.declare_explicit("a");
        det.declare_explicit("b");
        let pool = DetectorPool::spawn(det.clone(), 1);
        let explicit =
            |name: &str| Signal::Explicit { name: name.into(), params: vec![], txn: None };
        // Park the one worker in the first signal's completion callback.
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let park = move || {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
        };
        pool.signal_async_done(explicit("a"), Box::new(park));
        entered_rx.recv().unwrap();
        const K: u64 = 16;
        for i in 0..K {
            pool.signal_async(explicit(["a", "b"][i as usize % 2]));
        }
        // The queue depth of every live shard that has one.
        let depths = || {
            let shards = det.stats().shards.into_iter().filter(|s| s.queue_depth > 0);
            shards.map(|s| (s.shard, s.queue_depth)).collect::<Vec<_>>()
        };
        let (a, b) = (det.shard_of_event("a"), det.shard_of_event("b"));
        assert_eq!(depths(), [(a, K / 2), (b, K / 2)], "one shard per leaf");
        // DDL merges the two queued shards while their signals wait.
        det.define_named("s", &parse_event_expr("a ; b").unwrap()).unwrap();
        let merged = det.shard_of_event("s");
        assert!([a, b].contains(&merged) && det.shard_of_event("a") == merged);
        assert_eq!(depths(), [(merged, K)], "the merged shard counts both queues");
        release_tx.send(()).unwrap();
        pool.with_paused(|_| ()); // drains the queue
        assert_eq!(pool.metrics().processed.get(), K + 1);
        assert_eq!(depths(), [], "every queued signal was taken off its gauge");
    }

    #[test]
    fn pool_flush_txn_is_a_global_fence() {
        let det = Arc::new(LocalEventDetector::new(2));
        det.declare_explicit("a");
        det.declare_explicit("b");
        let seq = det.define_named("s", &parse_event_expr("a ; b").unwrap()).unwrap();
        det.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        let pool = DetectorPool::spawn(det, 4);
        pool.signal_async(Signal::Explicit { name: "a".into(), params: Vec::new(), txn: Some(7) });
        pool.signal_async(Signal::FlushTxn(7));
        let dets = pool.signal_sync(Signal::Explicit {
            name: "b".into(),
            params: Vec::new(),
            txn: Some(8),
        });
        assert!(dets.is_empty(), "initiator of T7 flushed before T8's terminator");
    }

    #[test]
    fn pool_with_paused_cuts_identical_snapshots() {
        let det = Arc::new(LocalEventDetector::new(2));
        det.declare_explicit("a");
        det.declare_explicit("b");
        let seq = det.define_named("s", &parse_event_expr("a ; b").unwrap()).unwrap();
        det.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        let pool = DetectorPool::spawn(det.clone(), 2);
        pool.signal_async(Signal::Explicit { name: "a".into(), params: Vec::new(), txn: None });
        let (x, y) = pool.with_paused(|p| (p.snapshot_state(), p.snapshot_state()));
        assert_eq!(x.encode(), y.encode(), "no signal raced the paused closure");
        assert!(!x.is_empty(), "queued initiator drained before the cut");
    }

    #[test]
    fn advance_time_signal_fires_temporal_events() {
        let svc = service();
        let det = svc.detector();
        let plus = det.define_named("later", &parse_event_expr("PLUS(ev, 50)").unwrap()).unwrap();
        det.subscribe(plus, ParamContext::Recent, 3).unwrap();
        svc.signal_async(method_signal(1)); // anchors the PLUS at ts=1
        let dets = svc.signal_sync(Signal::AdvanceTime(100));
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].event, plus);
        assert_eq!(dets[0].occurrence.at, 51);
    }
}
