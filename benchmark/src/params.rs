//! Every frozen parameter of the benchmark. A result records all of them
//! (see `report::config_json`); changing one starts a new baseline.

use sentinel_core::obs::json::Value;

/// Default `--seed`; results quoted in the README use it.
pub const DEFAULT_SEED: u64 = 1995;
/// Held-out seed: a later performance claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_260_925;
/// Default `--seconds` (the `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 30;

// --- child servers -------------------------------------------------------
pub const EVENT_LOOPS: usize = 1;
pub const DETECTOR_THREADS: usize = 1;
pub const GROUP_WINDOW_US: u64 = 100;
pub const CHECKPOINT_EVERY: u64 = 4_096;

/// Set-up is repeated this often in a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Windows the timed loop of an embedded workload is cut into (0.3 s each
/// at the default run length).
pub const WINDOWS: usize = 100;
/// A run reports the decile of its windows on the host's quiet side: the
/// windows' throughputs at `1 - QUIET_SHARE`, their median latencies at
/// `QUIET_SHARE` (see `stats::WindowSummary`).
pub const QUIET_SHARE: f64 = 0.10;
/// One operation in this many keeps a span in a traced run.
pub const SPAN_SAMPLING: usize = 64;

// --- wire_open -----------------------------------------------------------
/// Connections (= independent clients) of both wire workloads.
pub const WIRE_CONNECTIONS: usize = 2;
/// `seq_a`/`seq_b` pairs per connection before anything is timed
/// (in-memory server / durable server). Few on the durable server: each
/// costs 1.5 fsyncs, and `setup_s` should not be a measure of the host's
/// device (with 128 pairs it moved 35 % between consecutive sets).
pub const WIRE_WARMUP_PAIRS: usize = 10_000;
pub const DURABLE_WARMUP_PAIRS: usize = 16;
/// Offered rates, signals/s over both connections: 30/45/60/75/90/105 % of
/// the saturated closed-loop rate of the same frames on the build host
/// (this workload's `throughput_per_s`: 135 k/s, median of a ten-run set),
/// rounded to 1 k. Frozen: do not re-derive the steps from a faster commit.
pub const OPEN_RATES: [u64; 6] = [41_000, 61_000, 81_000, 101_000, 122_000, 142_000];
/// Index of the reference rate in [`OPEN_RATES`]: the 45 % step, where the
/// server's event loop is two thirds busy. (A frame costs more in the open
/// loop, one per wake-up, than in the saturating closed loop the
/// percentages refer to. At the 60 % step the loop is already 80 % busy,
/// and the median there depends on whether frames mostly find it awake: it
/// reads 27 µs in some runs and 30 µs in others, a spread of 0.08–0.10
/// over ten runs against 0.01–0.03 here.)
pub const REFERENCE_STEP: usize = 1;
/// Shares of `--seconds`: the saturating closed loop (in six equal
/// segments, one before each step, so that its windows are spread over the
/// whole run and not all inside one slow spell of the host), the reference
/// step, and each of the five other steps.
pub const CLOSED_SHARE: f64 = 0.20;
pub const REFERENCE_SHARE: f64 = 0.40;
pub const STEP_SHARE: f64 = 0.08;
/// Length of a window of the closed loop.
pub const CLOSED_WINDOW_MS: u64 = 50;
/// Replies per window of an open-loop step; a step's percentiles are
/// taken over its windows (`stats::summarize`): the median of the windows'
/// p99s and the quiet decile of their medians. Of 1 200 samples
/// 12 lie beyond the p99. The windows are this short (20 ms at the
/// reference rate) because the host stalls even a lone spinning thread for
/// 1–4 ms four times a second — 1 % of the time, exactly where a p99 sits:
/// over a long window the p99 says whether the stalls happened to cover
/// 0.9 % or 1.1 % of it, over short ones the median window has none.
pub const OPEN_WINDOW_SAMPLES: usize = 1_200;
/// SLO of a step: p99 from the intended send time at most this, …
pub const SLO_P99_US: f64 = 1_000.0;
/// … and in-flight requests at the step's end not above the in-flight
/// count at its midpoint by more than this (a growing backlog).
pub const SLO_BACKLOG_SLACK: u64 = 8;
/// A step whose generator ran later than this (p99) is invalid, not slow.
pub const MAX_LAG_P99_US: f64 = 500.0;

// --- wire_durable ----------------------------------------------------------
/// Signals per `SignalBatch` frame and frames in flight per connection.
pub const DURABLE_BATCH: usize = 8;
pub const DURABLE_INFLIGHT: usize = 4;
/// Signals of the timed run. The count is fixed (not the time, and not
/// `--seconds`), so the journal the restarts read is the same on every
/// commit; about 7 s at the seed commit.
pub const DURABLE_SIGNALS: u64 = 10_240;
/// Cold restarts over copies of the killed directory.
pub const DURABLE_RESTARTS: usize = 5;
/// Windows the durable run is cut into.
pub const DURABLE_WINDOWS: usize = 10;

// --- embedded_detect ---------------------------------------------------------
pub const DETECT_COMPONENTS: usize = 8;
pub const DETECT_LEAVES_PER_COMPONENT: usize = 8;
/// Chunks of 64 signals in the pre-generated block (1 Mi signals).
pub const DETECT_BLOCK_CHUNKS: usize = 16_384;
/// Chunks raised by set-up before timing starts.
pub const DETECT_WARMUP_CHUNKS: usize = 512;
/// Chunks recorded online and replayed through a fresh detector, and how
/// often the replay is repeated (`replay_per_s` is the median).
pub const DETECT_REPLAY_CHUNKS: usize = 1_024;
pub const DETECT_REPLAY_REPEATS: usize = 5;

// --- embedded_txn --------------------------------------------------------------
pub const TXN_POOL_FRAMES: usize = 256;
/// Stocks (padded to ~250 bytes each): the object heap is about four
/// times the 256-frame, 4 KiB-page buffer pool.
pub const TXN_STOCKS: usize = 16_384;
pub const TXN_PORTFOLIOS: usize = 64;
pub const TXN_PAD_BYTES: usize = 160;
/// Scripted transactions pre-generated per run (looped if exhausted).
pub const TXN_SCRIPTS: usize = 65_536;
/// Transactions run before timing starts.
pub const TXN_WARMUP: usize = 2_000;

pub const WORKLOADS: [&str; 4] = ["wire_open", "wire_durable", "embedded_detect", "embedded_txn"];

/// The parameters above as JSON, for `result.json`.
pub fn to_json() -> Value {
    let u = |n: u64| Value::UInt(n);
    Value::obj([
        ("default_seed", u(DEFAULT_SEED)),
        ("held_out_seed", u(HELD_OUT_SEED)),
        ("event_loops", u(EVENT_LOOPS as u64)),
        ("detector_threads", u(DETECTOR_THREADS as u64)),
        ("fsync", Value::str("always")),
        ("group_window_us", u(GROUP_WINDOW_US)),
        ("checkpoint_every", u(CHECKPOINT_EVERY)),
        ("setup_repeats", u(SETUP_REPEATS as u64)),
        ("windows", u(WINDOWS as u64)),
        ("quiet_share", Value::Float(QUIET_SHARE)),
        ("span_sampling", u(SPAN_SAMPLING as u64)),
        ("wire_connections", u(WIRE_CONNECTIONS as u64)),
        ("wire_warmup_pairs", u(WIRE_WARMUP_PAIRS as u64)),
        ("durable_warmup_pairs", u(DURABLE_WARMUP_PAIRS as u64)),
        ("open_rates_per_s", Value::Arr(OPEN_RATES.iter().map(|&r| u(r)).collect())),
        ("reference_rate_per_s", u(OPEN_RATES[REFERENCE_STEP])),
        ("closed_share", Value::Float(CLOSED_SHARE)),
        ("reference_share", Value::Float(REFERENCE_SHARE)),
        ("step_share", Value::Float(STEP_SHARE)),
        ("closed_window_ms", u(CLOSED_WINDOW_MS)),
        ("open_window_samples", u(OPEN_WINDOW_SAMPLES as u64)),
        ("slo_p99_us", Value::Float(SLO_P99_US)),
        ("slo_backlog_slack", u(SLO_BACKLOG_SLACK)),
        ("max_lag_p99_us", Value::Float(MAX_LAG_P99_US)),
        ("durable_batch", u(DURABLE_BATCH as u64)),
        ("durable_inflight", u(DURABLE_INFLIGHT as u64)),
        ("durable_signals", u(DURABLE_SIGNALS)),
        ("durable_restarts", u(DURABLE_RESTARTS as u64)),
        ("durable_windows", u(DURABLE_WINDOWS as u64)),
        ("detect_components", u(DETECT_COMPONENTS as u64)),
        ("detect_leaves_per_component", u(DETECT_LEAVES_PER_COMPONENT as u64)),
        ("detect_chunk", u(crate::gen::CHUNK as u64)),
        ("detect_block_chunks", u(DETECT_BLOCK_CHUNKS as u64)),
        ("detect_warmup_chunks", u(DETECT_WARMUP_CHUNKS as u64)),
        ("detect_replay_chunks", u(DETECT_REPLAY_CHUNKS as u64)),
        ("detect_replay_repeats", u(DETECT_REPLAY_REPEATS as u64)),
        ("txn_pool_frames", u(TXN_POOL_FRAMES as u64)),
        ("txn_stocks", u(TXN_STOCKS as u64)),
        ("txn_portfolios", u(TXN_PORTFOLIOS as u64)),
        ("txn_pad_bytes", u(TXN_PAD_BYTES as u64)),
        ("txn_invokes_per_txn", u(crate::gen::INVOKES_PER_TXN as u64)),
        ("txn_scripts", u(TXN_SCRIPTS as u64)),
        ("txn_warmup", u(TXN_WARMUP as u64)),
    ])
}
