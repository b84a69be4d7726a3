//! `embedded_detect`: the paper's §3.2 core with nothing else in the way.
//! One thread raises a pre-generated block of explicit events into an
//! in-process `Sentinel` whose event graph holds every Snoop operator,
//! subscribed in all four parameter contexts by rules that only count.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sentinel_core::detector::log::LoggedEvent;
use sentinel_core::detector::{EventSink, LocalEventDetector, Value};
use sentinel_core::obs::json;
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

use crate::child::peak_rss_mb;
use crate::gen::{detect_block, DetectSignal, CHUNK};
use crate::graphs::{self, DetectCounters, Subscribe};
use crate::params::*;
use crate::report::Outcome;
use crate::stats::{self, median, ns_u32, Window};

/// The block plus what turns a block entry into a `raise` call.
pub struct Input {
    pub block: Vec<DetectSignal>,
    pub names: Vec<String>,
    param_names: [Arc<str>; 4],
}

impl Input {
    pub fn new(seed: u64, chunks: usize) -> Input {
        Input {
            block: detect_block(seed, graphs::DETECT_LEAVES, chunks),
            names: graphs::detect_event_names(),
            param_names: graphs::DETECT_PARAM_NAMES.map(Arc::from),
        }
    }

    /// The parameter list of a signal — the wrapper's `PARA_LIST`.
    pub fn params(&self, sig: &DetectSignal) -> Vec<(Arc<str>, Value)> {
        self.param_names
            .iter()
            .zip(sig.params)
            .map(|(n, v)| (n.clone(), Value::Int(i64::from(v))))
            .collect()
    }

    pub fn name(&self, sig: &DetectSignal) -> &str {
        &self.names[usize::from(sig.event)]
    }

    pub fn chunks(&self) -> usize {
        self.block.len() / CHUNK
    }
}

/// The system under test: a Sentinel with the detect graph and counting
/// rules.
pub struct System {
    pub sentinel: Arc<Sentinel>,
    pub counters: Arc<DetectCounters>,
}

impl System {
    pub fn new() -> System {
        let sentinel = Sentinel::in_memory();
        let counters = graphs::define_detect_local(&sentinel);
        System { sentinel, counters }
    }

    /// What ends a chunk of 64 signals, which all carried `txn`: their
    /// buffered occurrences are flushed (events do not cross transaction
    /// boundaries, §3.2), logical time moves on so open `P`/`PLUS`
    /// windows fire, and the rule scheduler forgets the transaction.
    /// Returns the time the clock was advanced to.
    pub fn end_chunk(&self, txn: u64) -> u64 {
        let det = self.sentinel.detector();
        det.flush_txn(txn);
        let to = det.clock().peek() + 4;
        let dets = det.advance_time(to);
        self.sentinel.scheduler().dispatch(dets);
        self.sentinel.scheduler().on_txn_end(txn, true);
        to
    }

    /// Raises chunk `chunk` of `input` as transaction `txn`, untimed.
    fn raise_chunk(&self, input: &Input, chunk: usize, txn: u64) -> u64 {
        for sig in &input.block[chunk * CHUNK..(chunk + 1) * CHUNK] {
            self.sentinel
                .raise(Some(TxnId(txn)), input.name(sig), input.params(sig))
                .expect("raise");
        }
        self.end_chunk(txn)
    }
}

/// Online run of the first `chunks` chunks with recording on, then the
/// recorded log replayed chunk by chunk through a fresh bare detector.
pub struct ReplayCheck {
    pub online: [u64; 4],
    pub online_canaries: [u64; 4],
    pub replayed: [u64; 4],
    pub replayed_canaries: [u64; 4],
    pub events: usize,
    pub replay_elapsed: Duration,
    pub log: Vec<LoggedEvent>,
}

/// Records every accepted primitive event, the way the durable journal
/// does. (`start_recording` is not used: it switches the detector to its
/// serial mode, where every signal fires the due temporal alarms of *all*
/// shards rather than of its own, so `P`/`PLUS` detections differ from
/// the sharded path the timed run and the replay take.)
#[derive(Default)]
struct LogSink(Mutex<Vec<LoggedEvent>>);

impl EventSink for LogSink {
    fn record(&self, _detector: &LocalEventDetector, _shard: u32, ev: &LoggedEvent) {
        self.0.lock().expect("log sink lock").push(ev.clone());
    }
}

pub fn replay_check(input: &Input, chunks: usize) -> ReplayCheck {
    let sys = System::new();
    let sink = Arc::new(LogSink::default());
    sys.sentinel.detector().set_event_sink(sink.clone());
    let advanced: Vec<u64> = (0..chunks).map(|c| sys.raise_chunk(input, c, c as u64 + 1)).collect();
    sys.sentinel.detector().clear_event_sink();
    let log = std::mem::take(&mut *sink.0.lock().expect("log sink lock"));
    assert_eq!(log.len(), chunks * CHUNK, "every raised signal is recorded once");

    // The replay, [`DETECT_REPLAY_REPEATS`] times through a fresh detector
    // each; the detections of all of them are compared with the online run.
    let mut replays = Vec::new();
    let mut elapsed = Vec::new();
    for _ in 0..DETECT_REPLAY_REPEATS {
        let fresh = LocalEventDetector::new(0);
        graphs::define_detect_bare(&fresh, Subscribe::All);
        let mut counts = ([0u64; 4], [0u64; 4]);
        let mut count = |dets: Vec<sentinel_core::detector::Detection>| {
            for d in dets {
                let ctx = graphs::ctx_index(d.context);
                for sub in d.subscribers {
                    if sub & 1 == 1 {
                        counts.1[ctx] += 1;
                    } else {
                        counts.0[ctx] += 1;
                    }
                }
            }
        };
        let t0 = Instant::now();
        for (c, part) in log.chunks(CHUNK).enumerate() {
            count(fresh.replay(part));
            fresh.flush_txn(c as u64 + 1);
            count(fresh.advance_time(advanced[c]));
        }
        elapsed.push(t0.elapsed().as_secs_f64());
        replays.push(counts);
    }
    // A replay that disagrees with the online run is the one reported.
    let online = (sys.counters.roots(), sys.counters.canaries());
    let (replayed, replayed_canaries) =
        *replays.iter().find(|r| **r != online).unwrap_or(&replays[0]);
    let replay_elapsed = Duration::from_secs_f64(median(&elapsed));
    ReplayCheck {
        online: online.0,
        online_canaries: online.1,
        replayed,
        replayed_canaries,
        events: log.len(),
        replay_elapsed,
        log,
    }
}

/// Timed loop: raises the block chunk by chunk (looping) for `seconds`,
/// cut into windows. Returns the windows and the chunks raised.
pub fn timed_loop(sys: &System, input: &Input, seconds: f64, first_txn: u64) -> (Vec<Window>, u64) {
    let window_len = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut chunk = 0usize;
    let mut txn = first_txn;
    let mut lat_ns = Vec::new();
    for _ in 0..WINDOWS {
        lat_ns.clear();
        let start = Instant::now();
        let mut now = start;
        while now - start < window_len {
            for sig in &input.block[chunk * CHUNK..(chunk + 1) * CHUNK] {
                let params = input.params(sig);
                let t0 = Instant::now();
                sys.sentinel.raise(Some(TxnId(txn)), input.name(sig), params).expect("raise");
                now = Instant::now();
                lat_ns.push(ns_u32(now - t0));
            }
            sys.end_chunk(txn);
            txn += 1;
            chunk = (chunk + 1) % input.chunks();
            now = Instant::now();
        }
        windows.extend(Window::reduce(now - start, &mut lat_ns));
    }
    (windows, txn - first_txn)
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Set-up: generate the block, build the system (graph + 328 rules),
    // warm it with the first chunks.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let input = Input::new(seed, DETECT_BLOCK_CHUNKS);
        let sys = System::new();
        for c in 0..DETECT_WARMUP_CHUNKS {
            sys.raise_chunk(&input, c, c as u64 + 1);
        }
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((input, sys));
    }
    let (input, sys) = built.expect("SETUP_REPEATS > 0");

    let check = replay_check(&input, DETECT_REPLAY_CHUNKS);

    let canaries0 = sys.counters.canaries();
    let (windows, chunks) = timed_loop(&sys, &input, seconds, 1_000);
    let summary = stats::summarize(&windows);
    let canaries: Vec<u64> =
        sys.counters.canaries().iter().zip(canaries0).map(|(now, before)| now - before).collect();

    let mut out = Outcome::new("embedded_detect");
    out.check(
        "online detections per context equal the batch replay's",
        check.online == check.replayed && check.online_canaries == check.replayed_canaries,
        format!("online {:?} replayed {:?}", check.online, check.replayed),
    );
    // Each chunk opens with canary_a, canary_b: `canary_a ; canary_b` and
    // `canary_a ^ canary_b` are each detected once per chunk per context.
    let want = 2 * chunks;
    out.check(
        "canary SEQ/AND composites match their closed form",
        canaries.iter().all(|&c| c == want)
            && check.online_canaries.iter().all(|&c| c == 2 * DETECT_REPLAY_CHUNKS as u64),
        format!("timed {canaries:?}, want {want} per context"),
    );
    let mismatched: u64 = (0..4)
        .map(|i| {
            check.online[i].abs_diff(check.replayed[i])
                + check.online_canaries[i].abs_diff(check.replayed_canaries[i])
                + canaries[i].abs_diff(want)
        })
        .sum();
    out.attempted = chunks * CHUNK as u64 + check.events as u64;
    out.failed = mismatched;

    out.metric("setup_s", median(&setups), SETUP_REPEATS as u64);
    out.metric("throughput_per_s", summary.throughput_per_s, summary.samples);
    out.metric("latency_p50_us", summary.p50_us, summary.samples);
    out.metric("latency_p99_us", summary.p99_us, summary.samples);
    out.metric(
        "replay_per_s",
        check.events as f64 / check.replay_elapsed.as_secs_f64(),
        check.events as u64,
    );
    out.metric("peak_rss_mb", peak_rss_mb("self").ok_or("no VmHWM")?, 1);
    let per_ctx = |a: [u64; 4]| json::Value::Arr(a.iter().map(|&n| json::Value::UInt(n)).collect());
    out.detail = json::Value::obj([
        ("signals", json::Value::UInt(chunks * CHUNK as u64)),
        ("beyond_p99_min", json::Value::UInt(summary.beyond_p99_min)),
        ("window_throughput_per_s", stats::window_throughputs(&windows)),
        ("replayed_events", json::Value::UInt(check.events as u64)),
        ("detections_per_context_online", per_ctx(check.online)),
        ("detections_per_context_replayed", per_ctx(check.replayed)),
        ("graph_nodes", json::Value::UInt(sys.sentinel.detector().graph_size() as u64)),
    ]);
    Ok(out)
}
