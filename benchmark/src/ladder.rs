//! The traced ladder: per-layer metrics timed from outside.
//!
//! Each workload has a ladder of rungs, every rung a public call one
//! layer deeper than the rung above over the same seeded input, so a
//! layer's self time is its rung minus the rung below. Counts are read at
//! the same boundaries from the public snapshots (`Sentinel::stats()`,
//! server `Stats`, `recovery-report.json`). A traced run runs all four
//! ladders (the acceptance driver wants every per-layer metric from every
//! traced run) and keeps spans for the ladder of the workload it was asked
//! for. What an untraced run measures — the end-to-end metrics — is not
//! measured again here.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::detector::log::{encode_log, LoggedEvent};
use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{DetectorPool, LocalEventDetector};
use sentinel_core::durable_store::{DurableEngine, DurableOptions, FsyncPolicy};
use sentinel_core::obs::json::Value;
use sentinel_core::obs::HistogramSnapshot;
use sentinel_core::oodb::ObjectState;
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::snoop::{CouplingMode, ParamContext};
use sentinel_core::storage::disk::MemDisk;
use sentinel_core::storage::{StorageEngine, TxnId};
use sentinel_core::{Sentinel, SentinelConfig};
use sentinel_net::protocol::{self, Frame};
use sentinel_net::{ClientCodec, Opcode, SentinelClient};

use crate::child;
use crate::detect;
use crate::gen::{self, CHUNK, INVOKES_PER_TXN};
use crate::graphs::{self, wire_params, Subscribe};
use crate::host;
use crate::loadgen::Conn;
use crate::params::*;
use crate::report::{as_f64, Better, Check, Outcome};
use crate::spans::Recorder;
use crate::stats::{median, ns_per_op};
use crate::txn::{self, Rules};
use crate::wire::{self, Rig};

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, better: Better::Lower }
}
const fn hi(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, better: Better::Higher }
}

/// Every per-layer metric, in the order of `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: &[LayerDef] = &[
    // net
    lo("net.codec.single_ns", "ns"),
    lo("net.codec.batch_ns_per_signal", "ns"),
    lo("net.wire_bytes_per_signal", "bytes"),
    lo("net.ping_rtt_us", "us"),
    lo("net.signal_rtt_us", "us"),
    lo("net.residual_us", "us"),
    lo("net.conn_setup_us", "us"),
    lo("net.busy_frac", "ratio"),
    // core
    lo("core.signal_ns", "ns"),
    lo("core.raise_ns", "ns"),
    // detector
    lo("detector.notify_wire_ns", "ns"),
    lo("detector.notify_mix_ns", "ns"),
    lo("detector.leaf_only_ns", "ns"),
    lo("detector.ctx.recent_ns", "ns"),
    lo("detector.ctx.chronicle_ns", "ns"),
    lo("detector.ctx.continuous_ns", "ns"),
    lo("detector.ctx.cumulative_ns", "ns"),
    lo("detector.detections_per_signal", "count"),
    lo("detector.flush_txn_ns", "ns"),
    lo("detector.pool_hop_ns", "ns"),
    lo("detector.snapshot_ms", "ms"),
    lo("detector.snapshot_bytes", "bytes"),
    lo("detector.log.encode_ns_per_event", "ns"),
    lo("detector.log.bytes_per_event", "bytes"),
    lo("detector.replay_ns_per_event", "ns"),
    // rules
    lo("rules.fire_immediate_ns", "ns"),
    lo("rules.fire_deferred_ns", "ns"),
    lo("rules.cascade_ns_per_level", "ns"),
    lo("rules.firings_per_op", "count"),
    lo("rules.condition_mean_ns", "ns"),
    lo("rules.action_mean_ns", "ns"),
    lo("rules.threaded_txn_us", "us"),
    // txn
    lo("txn.empty_ns", "ns"),
    lo("txn.abort_ns", "ns"),
    // oodb
    lo("oodb.invoke_passive_ns", "ns"),
    lo("oodb.invoke_reactive_ns", "ns"),
    lo("oodb.create_object_ns", "ns"),
    lo("oodb.get_object_ns", "ns"),
    // storage
    lo("storage.update_ns", "ns"),
    lo("storage.commit_ns", "ns"),
    lo("storage.empty_txn_ns", "ns"),
    lo("storage.wal_bytes_per_txn", "bytes"),
    lo("storage.wal_forces_per_txn", "count"),
    hi("storage.buffer_hit_ratio", "ratio"),
    lo("storage.page_reads_per_txn", "count"),
    // durable
    lo("durable.signal_rtt_us", "us"),
    lo("durable.append_ns", "ns"),
    lo("durable.fsync_us", "us"),
    lo("durable.fsyncs_per_signal", "count"),
    hi("durable.group_batch_mean", "count"),
    lo("durable.bytes_per_record", "bytes"),
    lo("durable.checkpoint_ms", "ms"),
    lo("durable.recovery.scan_ms", "ms"),
    lo("durable.recovery.replay_ms", "ms"),
    lo("durable.recovery.replayed_records", "count"),
    // obs
    lo("obs.stats_snapshot_us", "us"),
    lo("obs.tracing_overhead_frac", "ratio"),
    lo("bench.trace_overhead_frac", "ratio"),
    // generator
    lo("loadgen.lag_p99_us", "us"),
    hi("loadgen.sent", "count"),
    lo("loadgen.inflight_max", "count"),
    // The intended split: the share of each workload's operation spent in
    // the layers the workload exists to stress (README, "what moves what").
    hi("wire_open.net_share", "ratio"),
    hi("wire_durable.durable_share", "ratio"),
    hi("embedded_detect.detector_share", "ratio"),
    lo("embedded_txn.txn_us", "us"),
    hi("embedded_txn.lower_layers_share", "ratio"),
];

/// What a traced run measured: one value per entry of [`PER_LAYER`], in
/// that order, plus the oracle of the short workload passes it made.
pub struct Ladder {
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl Ladder {
    fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER.iter().position(|d| d.name == name).unwrap_or_else(|| panic!("{name}?"));
        assert!(self.values[i].replace(value).is_none(), "{name} measured twice");
    }

    /// A metric an earlier rung measured.
    fn get(&self, name: &str) -> f64 {
        let i = PER_LAYER.iter().position(|d| d.name == name).unwrap_or_else(|| panic!("{name}?"));
        self.values[i].unwrap_or_else(|| panic!("{name} is not measured yet"))
    }

    /// The measured metrics, in table order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static LayerDef, f64)> + '_ {
        PER_LAYER.iter().zip(&self.values).filter_map(|(def, v)| v.map(|v| (def, v)))
    }

    /// Takes over the oracle of a mini workload pass.
    fn absorb(&mut self, out: Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.checks.extend(out.checks);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn print(&self) {
        eprintln!("== traced ladder ==");
        for (def, value) in self.metrics() {
            eprintln!("  {:<36} {:>16.4} {}", def.name, value, def.unit);
        }
        for c in self.checks.iter().filter(|c| !c.ok) {
            eprintln!("  [FAIL] {}: {}", c.name, c.detail);
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            (
                "metrics",
                Value::Obj(
                    self.metrics()
                        .map(|(def, value)| {
                            let v = [
                                ("value", Value::Float(value)),
                                ("unit", Value::str(def.unit)),
                                ("better", Value::str(def.better.as_str())),
                            ];
                            (def.name.to_string(), Value::obj(v))
                        })
                        .collect(),
                ),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("correct", Value::Bool(self.correct())),
        ])
    }
}

/// Budget of one rung.
const RUNG: Duration = Duration::from_millis(150);

/// One rung: `op` run in batches for [`RUNG`], reported as the median
/// batch's ns per operation. Sampled operations (1 in 64 of a traced
/// ladder) are timed one by one and keep a span.
fn rung(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<&'static str>,
    batch: usize,
    mut op: impl FnMut(usize),
) -> f64 {
    ns_per_op(RUNG, batch, |i| {
        if rec.samples(i) {
            let t0 = Instant::now();
            op(i);
            rec.record(name, parent, i, t0, Instant::now());
        } else {
            op(i);
        }
    })
}

/// Runs every ladder. `traced` names the workloads whose ladders keep
/// spans (each written to `trace-<workload>.json` under `out`).
pub fn run(seed: u64, traced: &[&'static str], out: &Path) -> Result<Ladder, String> {
    let mut ladder =
        Ladder { values: vec![None; PER_LAYER.len()], attempted: 0, failed: 0, checks: Vec::new() };
    let mut overhead = None;
    for workload in WORKLOADS {
        let mut rec = Recorder::new(traced.contains(&workload));
        let top = match workload {
            "wire_open" => wire_open_ladder(&mut ladder, &mut rec, seed)?,
            "wire_durable" => wire_durable_ladder(&mut ladder, &mut rec, seed, out)?,
            "embedded_detect" => detect_ladder(&mut ladder, &mut rec, seed),
            _ => txn_ladder(&mut ladder, &mut rec, seed),
        };
        // The first traced ladder's top rung with spans on against the same
        // rung with spans off.
        if traced.first() == Some(&workload) {
            overhead = Some(top);
        }
        if traced.contains(&workload) {
            let path = out.join(format!("trace-{workload}.json"));
            rec.write_chrome_trace(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    let (plain, spanned) = overhead.ok_or("a traced ladder names a workload to keep spans for")?;
    ladder.set("bench.trace_overhead_frac", (spanned - plain) / plain);
    for (def, value) in PER_LAYER.iter().zip(&ladder.values) {
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("per-layer metric {} was not measured: {value:?}", def.name));
        }
    }
    Ok(ladder)
}

/// A ladder's top rung timed plain, then as a traced ladder times it (one
/// operation in 64 keeps a span): `(plain, spanned)` ns per operation.
fn overhead_pair(batch: usize, mut op: impl FnMut(usize)) -> (f64, f64) {
    let plain = ns_per_op(RUNG, batch, &mut op);
    let mut rec = Recorder::new(true);
    let spanned = rung(&mut rec, "overhead", None, batch, &mut op);
    (plain, spanned)
}

// --- wire_open ---------------------------------------------------------------------

fn wire_open_ladder(
    ladder: &mut Ladder,
    rec: &mut Recorder,
    seed: u64,
) -> Result<(f64, f64), String> {
    let values = gen::wire_values(seed, 65_536);
    let value = |i: usize| values[i % values.len()];
    const EVENTS: [&str; 2] = ["seq_a", "seq_b"];

    // Codec only: request and reply, encoded and decoded, no socket.
    let request = |i: usize| {
        let payload = Value::obj([
            ("event", Value::str(EVENTS[i % 2])),
            ("params", protocol::params_to_json(&wire_params(value(i)))),
        ]);
        Frame::new(Opcode::SignalSync, i as u64, payload)
    };
    let reply =
        |i: usize| Frame::new(Opcode::Ok, i as u64, Value::obj([("detections", Value::UInt(1))]));
    let round_trip = |f: &Frame| {
        let bytes = protocol::encode_with(f, protocol::VERSION_BINARY).expect("encode");
        let decoded = protocol::decode_with(&bytes, protocol::VERSION_MAX).expect("decode");
        std::hint::black_box(decoded);
        bytes.len()
    };
    let mut wire_bytes = 0;
    let codec_single = rung(rec, "net.codec", Some("net.ping_rtt"), 512, |i| {
        wire_bytes = round_trip(&request(i)) + round_trip(&reply(i));
    });
    ladder.set("net.codec.single_ns", codec_single);
    ladder.set("net.wire_bytes_per_signal", wire_bytes as f64);
    let batch_frame = |i: usize| {
        let list = (0..DURABLE_BATCH).map(|j| request(i + j).payload).collect();
        Frame::new(Opcode::SignalBatch, i as u64, Value::obj([("signals", Value::Arr(list))]))
    };
    let batch_reply = Frame::new(
        Opcode::Ok,
        0,
        Value::obj([
            ("accepted", Value::UInt(DURABLE_BATCH as u64)),
            ("detections", Value::UInt(DURABLE_BATCH as u64 / 2)),
        ]),
    );
    let codec_batch = ns_per_op(RUNG, 64, |i| {
        std::hint::black_box(round_trip(&batch_frame(i)) + round_trip(&batch_reply));
    });
    ladder.set("net.codec.batch_ns_per_signal", codec_batch / DURABLE_BATCH as f64);

    // In-process rungs below the wire: core (detector + rules), then the
    // detector alone doing the same three signals per pair.
    let local = Sentinel::in_memory();
    graphs::define_wire_local(&local);
    let handle = local.serve_handle();
    let core_signal = rung(rec, "core.signal", Some("net.signal_rtt"), 512, |i| {
        std::hint::black_box(handle.signal(EVENTS[i % 2], wire_params(value(i)), None));
    });
    ladder.set("core.signal_ns", core_signal);
    let bare = LocalEventDetector::new(0);
    graphs::define_wire_bare(&bare);
    let notify_wire = rung(rec, "detector.notify_wire", Some("core.signal"), 512, |i| {
        let dets = bare.signal_explicit(EVENTS[i % 2], wire_params(value(i)), None);
        if !dets.is_empty() {
            // What `pair_watch` would raise.
            std::hint::black_box(bare.signal_explicit("cascade", Vec::new(), None));
        }
    });
    ladder.set("detector.notify_wire_ns", notify_wire);
    // One firing per signal on average: `pair_watch` and `cascade_count`
    // per pair of signals.
    ladder.set("rules.fire_immediate_ns", core_signal - notify_wire);

    // The pool hop: the same signal through a one-worker DetectorPool.
    let pooled = Arc::new(LocalEventDetector::new(0));
    graphs::define_wire_bare(&pooled);
    let mut pool = DetectorPool::spawn(pooled, 1);
    let through_pool = ns_per_op(RUNG, 256, |i| {
        let sig = Signal::Explicit {
            name: EVENTS[i % 2].to_string(),
            params: wire_params(value(i)),
            txn: None,
        };
        std::hint::black_box(pool.signal_sync(sig));
    });
    pool.shutdown();
    let direct = LocalEventDetector::new(0);
    graphs::define_wire_bare(&direct);
    let without_pool = ns_per_op(RUNG, 256, |i| {
        std::hint::black_box(direct.signal_explicit(EVENTS[i % 2], wire_params(value(i)), None));
    });
    ladder.set("detector.pool_hop_ns", through_pool - without_pool);

    // Over the wire, one connection, one request at a time.
    let (rig, _) = Rig::<SentinelClient>::set_up(None, &values)?;
    let client = &rig.conns[0];
    let ping_payload = request(0).payload;
    let ping = rung(rec, "net.ping_rtt", Some("net.signal_rtt"), 128, |_| {
        client.ping(ping_payload.clone()).expect("ping");
    });
    let mut failed = 0u64;
    let mut signal_rtt_op = |i: usize| {
        if client.signal_sync(EVENTS[i % 2], &wire_params(value(i)), None).is_err() {
            failed += 1;
        }
    };
    let signal_rtt = rung(rec, "net.signal_rtt", None, 128, &mut signal_rtt_op);
    let top = overhead_pair(128, &mut signal_rtt_op);
    ladder.set("net.ping_rtt_us", ping / 1e3);
    ladder.set("net.signal_rtt_us", signal_rtt / 1e3);
    let residual = signal_rtt - ping - core_signal;
    ladder.set("net.residual_us", residual / 1e3);
    ladder.set("wire_open.net_share", (ping + residual) / signal_rtt);
    let setups: Vec<f64> = (0..16)
        .map(|_| {
            let t0 = Instant::now();
            let c =
                SentinelClient::connect_with(&rig.server.addr, "bench-setup", ClientCodec::Binary);
            drop(c);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ladder.set("net.conn_setup_us", median(&setups));
    drop(rig);

    // One step of the open loop at the reference rate: how busy the server
    // is there, and how the generator kept its schedule.
    let (mut rig, _) = Rig::<Conn>::set_up(&values)?;
    let step = wire::open_step(
        &mut rig,
        &values,
        OPEN_RATES[REFERENCE_STEP],
        Duration::from_millis(1500),
    )?;
    ladder.set("net.busy_frac", step.busy_frac);
    ladder.set("loadgen.lag_p99_us", step.lag_p99_us);
    ladder.set("loadgen.sent", step.sent as f64);
    ladder.set("loadgen.inflight_max", step.inflight_max as f64);
    failed += step.failed + (step.sent / 2).abs_diff(step.pairs);
    ladder.attempted += step.sent;
    ladder.failed += failed;
    ladder.checks.push(Check {
        name: "ladder: wire_open step lost nothing".to_string(),
        ok: failed == 0,
        detail: format!("{failed} of {} signals failed or went undetected", step.sent),
    });
    Ok(top)
}

// --- wire_durable ------------------------------------------------------------------

fn explicit(name: &str, v: i64, ts: u64) -> LoggedEvent {
    LoggedEvent::Explicit { name: name.to_string(), params: wire_params(v), txn: None, ts }
}

fn wire_durable_ladder(
    ladder: &mut Ladder,
    rec: &mut Recorder,
    seed: u64,
    out: &Path,
) -> Result<(f64, f64), String> {
    let scratch = out.join("ladder_durable");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let values = gen::wire_values(seed, 65_536);
    const EVENTS: [&str; 2] = ["seq_a", "seq_b"];

    // Top rung: the same one-at-a-time signal as `net.signal_rtt`, against
    // the durable server. The rung below is `net.signal_rtt` itself, so the
    // difference is what durability adds to a signal.
    let (rig, _) = Rig::<SentinelClient>::set_up(Some(&scratch.join("rtt")), &values)?;
    let client = &rig.conns[0];
    let mut op = |i: usize| {
        client
            .signal_sync(EVENTS[i % 2], &wire_params(values[i % values.len()]), None)
            .expect("signal");
    };
    let durable_rtt = rung(rec, "durable.signal_rtt", None, 32, &mut op);
    let top = overhead_pair(32, &mut op);
    ladder.set("durable.signal_rtt_us", durable_rtt / 1e3);
    drop(rig);

    // The journal alone, in process: an append that never syncs, and one
    // that waits for its group commit.
    let engine_opts =
        |fsync| DurableOptions { fsync, checkpoint_every: 0, ..child::durable_options() };
    let open = |dir: &str, fsync| {
        DurableEngine::open(&scratch.join(dir), engine_opts(fsync))
            .map(|(engine, _)| engine)
            .map_err(|e| format!("open durable engine: {e}"))
    };
    let never = open("append", FsyncPolicy::Never)?;
    let append = rung(rec, "durable.append", Some("durable.fsync"), 512, |i| {
        never
            .append_event(0, &explicit(EVENTS[i % 2], values[i % values.len()], i as u64))
            .expect("append");
    });
    ladder.set("durable.append_ns", append);
    let always = open("fsync", FsyncPolicy::Always)?;
    let fsync = rung(rec, "durable.fsync", Some("durable.signal_rtt"), 32, |i| {
        always
            .append_event(0, &explicit(EVENTS[i % 2], values[i % values.len()], i as u64))
            .expect("append");
    });
    ladder.set("durable.fsync_us", fsync / 1e3);
    drop((never, always));

    // A checkpoint of the wire graph with a pair half detected.
    let (durable, _) = Sentinel::open_durable(
        &scratch.join("checkpoint"),
        SentinelConfig::default(),
        engine_opts(FsyncPolicy::Never),
    )
    .map_err(|e| format!("open durable sentinel: {e}"))?;
    graphs::define_wire_local(&durable);
    durable.raise(None, "seq_a", wire_params(1)).expect("raise");
    let checkpoints: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            durable.checkpoint_now().expect("checkpoint");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ladder.set("durable.checkpoint_ms", median(&checkpoints));
    drop(durable);

    // A short run of the workload itself for the counts and the phases of
    // a recovery.
    let run = wire::durable_run(seed, 2_048, 1, 2, &scratch.join("run"))?;
    let mut outcome = Outcome::new("wire_durable");
    let lost = run.check(&mut outcome);
    outcome.attempted = run.signals;
    outcome.failed = run.failed + lost;
    ladder.absorb(outcome);
    let stat = |k: &str| as_f64(run.durability.get(k)).unwrap_or(0.0);
    ladder.set("durable.fsyncs_per_signal", run.fsyncs_per_signal);
    ladder.set(
        "durable.group_batch_mean",
        stat("group_commit_records") / stat("group_commits").max(1.0),
    );
    ladder
        .set("durable.bytes_per_record", stat("journal_bytes") / stat("journal_appends").max(1.0));
    let report = run.reports.first().ok_or("no recovery report")?;
    let phase = |k: &str| as_f64(report.get("phases").and_then(|p| p.get(k))).unwrap_or(0.0);
    ladder.set(
        "durable.recovery.scan_ms",
        (phase("fence_repair_us") + phase("stream_merge_us")) / 1e3,
    );
    ladder.set("durable.recovery.replay_ms", phase("replay_us") / 1e3);
    ladder.set(
        "durable.recovery.replayed_records",
        as_f64(report.get("replayed_records")).unwrap_or(0.0),
    );
    // `durable`'s self time in a signal: the top rung minus the rung below,
    // which is the same one-at-a-time signal against the in-memory server.
    let below = ladder.get("net.signal_rtt_us") * 1e3;
    ladder.set("wire_durable.durable_share", (durable_rtt - below) / durable_rtt);
    Ok(top)
}

// --- embedded_detect ---------------------------------------------------------------

/// Chunks of the detect ladder's input block.
const LADDER_CHUNKS: usize = 2_048;

/// A bare detect detector fed the block signal by signal, ending chunks
/// the way the workload does.
struct BareFeed<'a> {
    det: LocalEventDetector,
    input: &'a detect::Input,
    detections: u64,
    flush_ns: u64,
    flushes: u64,
}

impl<'a> BareFeed<'a> {
    fn new(input: &'a detect::Input, sub: Subscribe) -> BareFeed<'a> {
        let det = LocalEventDetector::new(0);
        graphs::define_detect_bare(&det, sub);
        BareFeed { det, input, detections: 0, flush_ns: 0, flushes: 0 }
    }

    fn signal(&mut self, i: usize) {
        let sig = &self.input.block[i % self.input.block.len()];
        let txn = (i / CHUNK) as u64 + 1;
        let dets =
            self.det.signal_explicit(self.input.name(sig), self.input.params(sig), Some(txn));
        self.detections += dets.iter().map(|d| d.subscribers.len() as u64).sum::<u64>();
        if i % CHUNK == CHUNK - 1 {
            let t0 = Instant::now();
            self.det.flush_txn(txn);
            self.flush_ns += t0.elapsed().as_nanos() as u64;
            self.flushes += 1;
            let to = self.det.clock().peek() + 4;
            self.detections +=
                self.det.advance_time(to).iter().map(|d| d.subscribers.len() as u64).sum::<u64>();
        }
    }
}

fn detect_ladder(ladder: &mut Ladder, rec: &mut Recorder, seed: u64) -> (f64, f64) {
    let input = detect::Input::new(seed, LADDER_CHUNKS);

    // Top rung: `Sentinel::raise` with the counting rules.
    // Signal `i` of the (looped) block, ending its chunk after the last.
    let raise_signal = |sys: &detect::System, i: usize| {
        let sig = &input.block[i % input.block.len()];
        let txn = (i / CHUNK) as u64 + 1;
        sys.sentinel.raise(Some(TxnId(txn)), input.name(sig), input.params(sig)).expect("raise");
        if i % CHUNK == CHUNK - 1 {
            sys.end_chunk(txn);
        }
    };
    let sys = detect::System::new();
    let mut raise_op = |i: usize| raise_signal(&sys, i);
    let raise = rung(rec, "core.raise", None, 16 * CHUNK, &mut raise_op);
    let top = overhead_pair(16 * CHUNK, &mut raise_op);
    ladder.set("core.raise_ns", raise);

    let t0 = Instant::now();
    for _ in 0..20 {
        std::hint::black_box(sys.sentinel.stats());
    }
    ladder.set("obs.stats_snapshot_us", t0.elapsed().as_secs_f64() * 1e6 / 20.0);

    // The same rung with provenance tracing on.
    let traced = detect::System::new();
    traced.sentinel.set_tracing(true);
    let raise_traced = ns_per_op(RUNG, 16 * CHUNK, |i| raise_signal(&traced, i));
    ladder.set("obs.tracing_overhead_frac", (raise_traced - raise) / raise);

    // One layer down: the detector with the subscriptions but no rule
    // bodies, then with one context, then with nothing subscribed.
    let mut mix = BareFeed::new(&input, Subscribe::All);
    let notify_mix =
        rung(rec, "detector.notify_mix", Some("core.raise"), 16 * CHUNK, |i| mix.signal(i));
    ladder.set("detector.notify_mix_ns", notify_mix);
    ladder.set("detector.flush_txn_ns", mix.flush_ns as f64 / mix.flushes.max(1) as f64);
    ladder.set("embedded_detect.detector_share", (notify_mix / raise).min(1.0));
    // Half a chunk on top, so the snapshot holds open windows.
    let resume = mix.flushes as usize * CHUNK;
    for i in resume..resume + CHUNK / 2 {
        mix.signal(i);
    }
    let snapshots: Vec<(f64, usize)> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let bytes = mix.det.snapshot_state().encode().len();
            (t0.elapsed().as_secs_f64() * 1e3, bytes)
        })
        .collect();
    ladder.set("detector.snapshot_ms", median(&snapshots.iter().map(|s| s.0).collect::<Vec<_>>()));
    ladder.set("detector.snapshot_bytes", snapshots[0].1 as f64);
    for (ctx, name) in [
        (ParamContext::Recent, "detector.ctx.recent_ns"),
        (ParamContext::Chronicle, "detector.ctx.chronicle_ns"),
        (ParamContext::Continuous, "detector.ctx.continuous_ns"),
        (ParamContext::Cumulative, "detector.ctx.cumulative_ns"),
    ] {
        let mut one = BareFeed::new(&input, Subscribe::Only(ctx));
        ladder.set(name, ns_per_op(RUNG, 16 * CHUNK, |i| one.signal(i)));
    }
    let mut leaf = BareFeed::new(&input, Subscribe::Nothing);
    let leaf_only = rung(rec, "detector.leaf_only", Some("detector.notify_mix"), 16 * CHUNK, |i| {
        leaf.signal(i)
    });
    ladder.set("detector.leaf_only_ns", leaf_only);

    // Record, replay, and the log's own format.
    let check = detect::replay_check(&input, 512);
    let events = check.events as f64;
    let detections: u64 = check.online.iter().chain(&check.online_canaries).sum();
    ladder.set("detector.detections_per_signal", detections as f64 / events);
    ladder.set("detector.replay_ns_per_event", check.replay_elapsed.as_nanos() as f64 / events);
    let t0 = Instant::now();
    let encoded = encode_log(&check.log);
    ladder.set("detector.log.encode_ns_per_event", t0.elapsed().as_nanos() as f64 / events);
    ladder.set("detector.log.bytes_per_event", encoded.len() as f64 / events);
    let mismatched: u64 = (0..4)
        .map(|i| {
            check.online[i].abs_diff(check.replayed[i])
                + check.online_canaries[i].abs_diff(check.replayed_canaries[i])
        })
        .sum();
    ladder.attempted += check.events as u64;
    ladder.failed += mismatched;
    ladder.checks.push(Check {
        name: "ladder: online detections equal the replay's".to_string(),
        ok: mismatched == 0,
        detail: format!("online {:?} replayed {:?}", check.online, check.replayed),
    });
    top
}

// --- embedded_txn ------------------------------------------------------------------

/// Stocks of the ladder's side systems (the main one is full size).
const SIDE_STOCKS: usize = 2_048;

fn txn_ladder(ladder: &mut Ladder, rec: &mut Recorder, seed: u64) -> (f64, f64) {
    let scripts = gen::txn_scripts(seed, TXN_STOCKS, 16_384);

    // Top rung: the workload's transaction, full-size system.
    let sys = txn::System::build(ExecutionMode::Inline, Rules::All, TXN_STOCKS);
    let want = std::cell::RefCell::new(txn::Expected::default());
    let mut txn_op = |i: usize| {
        let script = &scripts[i % scripts.len()];
        sys.run_txn(script);
        want.borrow_mut().add(script);
    };
    for i in 0..512 {
        txn_op(i);
    }
    let stats0 = sys.sentinel.stats();
    let txns0 = want.borrow().txns;
    let txn_ns = rung(rec, "embedded_txn.txn", None, 64, &mut txn_op);
    let stats1 = sys.sentinel.stats();
    let per = txn::per_txn(&stats0, &stats1, want.borrow().txns - txns0);
    let top = overhead_pair(64, &mut txn_op);
    let want = want.into_inner();
    ladder.set("embedded_txn.txn_us", txn_ns / 1e3);
    ladder.set("storage.wal_bytes_per_txn", per.wal_bytes);
    ladder.set("storage.wal_forces_per_txn", per.wal_forces);
    ladder.set("storage.buffer_hit_ratio", per.buffer_hit_ratio);
    ladder.set("storage.page_reads_per_txn", per.page_reads);
    ladder.set("rules.firings_per_op", per.firings);
    // Means of the scheduler's own histograms over the rung (their
    // percentiles are bucket bounds, the same figure on every run).
    let (sched0, sched1) = (&stats0.scheduler, &stats1.scheduler);
    let mean = |h0: &HistogramSnapshot, h1: &HistogramSnapshot| {
        (h1.sum - h0.sum) as f64 / (h1.count - h0.count).max(1) as f64
    };
    ladder.set("rules.condition_mean_ns", mean(&sched0.condition, &sched1.condition));
    ladder.set("rules.action_mean_ns", mean(&sched0.action, &sched1.action));
    let mut outcome = Outcome::new("embedded_txn");
    outcome.failed = sys.check(&want, &mut outcome);
    outcome.attempted = want.txns;
    ladder.absorb(outcome);
    drop(sys);

    // The same transaction with rule bodies on the thread pool.
    let threaded = txn::System::build(
        ExecutionMode::Threaded { workers: host::nproc() },
        Rules::All,
        SIDE_STOCKS,
    );
    let threaded_ns = ns_per_op(RUNG, 32, |i| {
        threaded.run_txn(&scripts[i % scripts.len()]);
    });
    ladder.set("rules.threaded_txn_us", threaded_ns / 1e3);
    drop(threaded);

    // The wrapper alone: events declared, no rule defined; then the twin
    // method no event is declared on. Eight invocations per transaction.
    let quiet = txn::System::build(ExecutionMode::Inline, Rules::None, SIDE_STOCKS);
    let s = &quiet.sentinel;
    let mut open = s.begin().expect("begin");
    let mut invoke = |sig: &'static str, i: usize| {
        let oid = quiet.stocks[(i * 7919) % quiet.stocks.len()];
        s.invoke(open, oid, sig, vec![("price".into(), (i as f64).into())]).expect("invoke");
        if i % INVOKES_PER_TXN == INVOKES_PER_TXN - 1 {
            s.commit(open).expect("commit");
            open = s.begin().expect("begin");
        }
    };
    let reactive = rung(rec, "oodb.invoke_reactive", Some("embedded_txn.txn"), 256, |i| {
        invoke(txn::SET_PRICE, i)
    });
    let passive = rung(rec, "oodb.invoke_passive", Some("oodb.invoke_reactive"), 256, |i| {
        invoke(txn::SET_PRICE_QUIET, i)
    });
    ladder.set("oodb.invoke_reactive_ns", reactive);
    ladder.set("oodb.invoke_passive_ns", passive);
    let get = ns_per_op(RUNG, 256, |i| {
        std::hint::black_box(
            s.get_object(open, quiet.stocks[(i * 7919) % quiet.stocks.len()]).expect("get"),
        );
    });
    ladder.set("oodb.get_object_ns", get);
    let create = ns_per_op(RUNG, 256, |i| {
        let state = ObjectState::new("AUDIT").with("txns", i as i64).with("price_changes", 0i64);
        std::hint::black_box(s.create_object(open, &state).expect("create"));
    });
    ladder.set("oodb.create_object_ns", create);
    s.commit(open).expect("commit");
    let empty = rung(rec, "txn.empty", Some("embedded_txn.txn"), 256, |_| {
        let t = s.begin().expect("begin");
        s.commit(t).expect("commit");
    });
    ladder.set("txn.empty_ns", empty);
    ladder.set(
        "txn.abort_ns",
        ns_per_op(RUNG, 256, |_| {
            let t = s.begin().expect("begin");
            s.abort(t).expect("abort");
        }),
    );
    drop(quiet);

    // The storage engine alone: eight updates and a commit.
    let engine = StorageEngine::open_with_capacity(
        Arc::new(MemDisk::new()),
        Arc::new(txn::RingLog::new()),
        TXN_POOL_FRAMES,
    )
    .expect("engine");
    let record = vec![7u8; 250];
    let t = engine.begin().expect("begin");
    let rids: Vec<_> =
        (0..SIDE_STOCKS).map(|_| engine.insert(t, &record).expect("insert")).collect();
    engine.commit(t).expect("commit");
    let (mut update_ns, mut commit_ns) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut n = 0usize;
    while started.elapsed() < RUNG {
        let t = engine.begin().expect("begin");
        let t0 = Instant::now();
        for _ in 0..INVOKES_PER_TXN {
            engine.update(t, rids[(n * 7919) % rids.len()], &record).expect("update");
            n += 1;
        }
        let t1 = Instant::now();
        engine.commit(t).expect("commit");
        update_ns.push((t1 - t0).as_nanos() as f64 / INVOKES_PER_TXN as f64);
        commit_ns.push(t1.elapsed().as_nanos() as f64);
    }
    ladder.set("storage.update_ns", median(&update_ns));
    ladder.set("storage.commit_ns", median(&commit_ns));
    let storage_empty = rung(rec, "storage.empty_txn", Some("txn.empty"), 256, |_| {
        let t = engine.begin().expect("begin");
        engine.commit(t).expect("commit");
    });
    ladder.set("storage.empty_txn_ns", storage_empty);

    // Rules alone, on explicit events of an in-memory Sentinel.
    ladder.set("rules.fire_deferred_ns", deferred_firing_ns());
    ladder.set("rules.cascade_ns_per_level", (cascade_ns(5) - cascade_ns(1)) / 4.0);

    // The detector's part of a transaction: what declaring the events
    // adds to each wrapper call (a quarter of the eight `set_price` calls
    // trigger two more reactive calls), plus what the transaction events
    // and the flush add to an empty transaction. The rest is `rules`,
    // `txn`, `oodb` and `storage`.
    let reactive_calls = INVOKES_PER_TXN as f64 * 1.5;
    let detector_ns =
        reactive_calls * (reactive - passive).max(0.0) + (empty - storage_empty).max(0.0);
    ladder.set("embedded_txn.lower_layers_share", (1.0 - detector_ns / txn_ns).clamp(0.0, 1.0));
    top
}

/// One deferred rule firing: a transaction that raises one event, with a
/// deferred counting rule on it and without.
fn deferred_firing_ns() -> f64 {
    let per_txn = |with_rule: bool| {
        let s = Sentinel::in_memory();
        s.declare_explicit("e").expect("declare");
        if with_rule {
            let fired = Arc::new(AtomicU64::new(0));
            s.define_rule(
                "deferred_count",
                "e",
                Arc::new(|_| true),
                Arc::new(move |_| {
                    fired.fetch_add(1, Ordering::Relaxed);
                }),
                RuleOptions::default().coupling(CouplingMode::Deferred),
            )
            .expect("rule");
        }
        ns_per_op(RUNG, 128, |_| {
            let t = s.begin().expect("begin");
            s.raise(Some(t), "e", Vec::new()).expect("raise");
            s.commit(t).expect("commit");
        })
    };
    per_txn(true) - per_txn(false)
}

/// One raise that cascades through `depth` immediate rules, each raising
/// the next level's event.
fn cascade_ns(depth: usize) -> f64 {
    let s = Sentinel::in_memory();
    for level in 0..=depth {
        s.declare_explicit(&format!("level{level}")).expect("declare");
    }
    for level in 0..depth {
        let weak = Arc::downgrade(&s);
        let next = format!("level{}", level + 1);
        s.define_rule(
            &format!("cascade{level}"),
            &format!("level{level}"),
            Arc::new(|_| true),
            Arc::new(move |_| {
                if let Some(s) = weak.upgrade() {
                    s.raise(None, &next, Vec::new()).expect("raise");
                }
            }),
            RuleOptions::default(),
        )
        .expect("rule");
    }
    ns_per_op(RUNG, 256, |_| s.raise(None, "level0", Vec::new()).expect("raise"))
}

/// The value `BENCHMARK.json` must agree with (checked by a unit test).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    fn names_units(list: &Value) -> Vec<(String, String, String)> {
        list.as_arr()
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("valid JSON");
        let e2e: Vec<_> = report::universal()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect();
        assert_eq!(names_units(doc.get("end_to_end").expect("end_to_end")), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect();
        assert_eq!(names_units(doc.get("per_layer").expect("per_layer")), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        // The driver judges every listed metric on every listed workload.
        let judged: Vec<&str> = WORKLOADS
            .into_iter()
            .filter(|w| report::universal().all(|m| !report::demoted(w, m.name)))
            .collect();
        assert_eq!(workloads, judged);
        assert_eq!(doc.get("run_seconds").and_then(Value::as_u64), Some(DEFAULT_SECONDS));
        let bound = |name: &str| {
            let list = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
            as_f64(
                list.iter()
                    .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
                    .unwrap()
                    .get("bound"),
            )
        };
        for def in report::universal() {
            let report::Bound::Rel(b) = def.bound else { panic!("universal metrics are relative") };
            assert_eq!(bound(def.name), Some(b), "{}", def.name);
        }
    }
}
