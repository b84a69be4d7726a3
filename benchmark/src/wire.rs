//! The two wire workloads: a child server driven over TCP.
//!
//! * `wire_open` — open loop. Two connections send one `SignalSync` frame
//!   per signal on a fixed schedule (see `loadgen`); latency runs from the
//!   *intended* send time, so a stall is charged to every request it
//!   delays. Before each rate step the same connections run a segment of a
//!   saturating closed loop, which is the workload's throughput.
//! * `wire_durable` — closed loop. Two `SentinelClient` connections keep
//!   four `SignalBatch` frames of eight signals in flight against a durable
//!   server (`fsync = Always`), which is then killed and cold-restarted.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use sentinel_core::durable_store::RECOVERY_REPORT_FILE;
use sentinel_core::obs::json::Value;
use sentinel_net::protocol::params_to_json;
use sentinel_net::{BatchSignal, ClientCodec, Opcode, Pending, SentinelClient};

use crate::child::{self, Server};
use crate::graphs::{self, wire_params};
use crate::host::OnLastCpu;
use crate::loadgen::{self, Conn, Driven, Pace, Stop};
use crate::params::*;
use crate::report::{as_f64, Outcome};
use crate::stats::{self, median, ns_u32, quantile};

const EVENTS: [&str; 2] = ["seq_a", "seq_b"];

/// A child server with the wire graph defined, an admin connection and
/// the load connections (`SentinelClient`s, or the open loop's raw
/// [`Conn`]s), warmed up.
pub struct Rig<C> {
    // Declared before `server`: connections close before the child dies.
    pub conns: Vec<C>,
    pub admin: SentinelClient,
    pub server: Server,
    /// The open loop's generator thread keeps a CPU to itself.
    _generator_cpu: Option<OnLastCpu>,
}

fn connect(addr: &str, name: &str) -> Result<SentinelClient, String> {
    SentinelClient::connect_with(addr, name, ClientCodec::Binary)
        .map_err(|e| format!("connect {name}: {e}"))
}

impl<C> Rig<C> {
    /// Spawns the child, defines the graph and opens the load connections.
    /// `apart`: the server is kept off the last CPU and the calling
    /// (generator) thread pinned to it.
    fn start(
        data_dir: Option<&Path>,
        apart: bool,
        open: impl Fn(&str, &str) -> Result<C, String>,
    ) -> Result<Rig<C>, String> {
        // The child inherits this thread's CPUs: it is spawned before the
        // generator narrows its own.
        let server = Server::spawn(data_dir, apart)?;
        let generator_cpu = apart.then(OnLastCpu::pin);
        let admin = connect(&server.addr, "bench-admin")?;
        graphs::define_wire_remote(&admin).map_err(|e| format!("define wire graph: {e}"))?;
        let conns = (0..WIRE_CONNECTIONS)
            .map(|i| open(&server.addr, &format!("bench-{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig { conns, admin, server, _generator_cpu: generator_cpu })
    }

    /// The server's stats snapshot.
    pub fn stats(&self) -> Result<Value, String> {
        self.admin.stats().map_err(|e| format!("stats: {e}"))
    }

    /// `(immediate rules fired, cascade_count hits)` from server stats.
    pub fn fired(&self) -> Result<(u64, u64), String> {
        let stats = self.stats()?;
        Ok((
            stat(&stats, &["scheduler", "fired", "immediate"]),
            stat(&stats, &["rule_hits", "cascade_count"]),
        ))
    }
}

impl Rig<SentinelClient> {
    /// Spawns the child (durable over `data_dir` when given), defines the
    /// graph, connects and warms up. Returns the rig and how long all of
    /// that took.
    pub fn set_up(data_dir: Option<&Path>, values: &[i64]) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let rig = Rig::start(data_dir, false, connect)?;
        // A durable server pays an fsync per warm-up signal: far fewer do.
        let pairs = if data_dir.is_some() { DURABLE_WARMUP_PAIRS } else { WIRE_WARMUP_PAIRS };
        let warm = closed_loop(&rig, values, 1, CLOSED_WINDOW, 2 * pairs);
        if warm.failed > 0 {
            return Err(format!("{} warm-up signals failed", warm.failed));
        }
        Ok((rig, t0.elapsed()))
    }
}

impl Rig<Conn> {
    /// The rig of the open loop: in-memory child, raw load connections.
    pub fn set_up(values: &[i64]) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let mut rig = Rig::start(None, true, Conn::connect)?;
        let warm = loadgen::drive(
            &mut rig.conns,
            values,
            Pace::Window(CLOSED_WINDOW),
            Stop::Frames(2 * WIRE_WARMUP_PAIRS),
        )?;
        if warm.failed > 0 {
            return Err(format!("{} warm-up signals failed", warm.failed));
        }
        Ok((rig, t0.elapsed()))
    }
}

/// The counter at `path` of a stats snapshot (0 when absent).
fn stat(stats: &Value, path: &[&str]) -> u64 {
    path.iter().try_fold(stats, |v, k| v.get(k)).and_then(Value::as_u64).unwrap_or(0)
}

/// Sets a rig up [`SETUP_REPEATS`] times (tearing the earlier ones down)
/// and returns the last with the median set-up time.
pub fn set_up_repeated<R>(
    mut set_up: impl FnMut(usize) -> Result<(R, Duration), String>,
) -> Result<(R, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let (rig, took) = set_up(i)?;
        times.push(took.as_secs_f64());
        last = Some(rig);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), median(&times)))
}

// --- closed loop over `SentinelClient` -----------------------------------------

/// Frames per connection kept in flight by the saturating closed loop of
/// `wire_open` and by the warm-ups: enough that the server, not a
/// client's wake-up latency, is what limits the rate.
pub const CLOSED_WINDOW: usize = 8;

/// What a closed loop did.
#[derive(Default)]
pub struct Closed {
    /// `(reply arrived at, ns since the frame was sent)` per frame.
    pub samples: Vec<(Instant, u32)>,
    /// Detections the `seq_b` signals reported (one per pair when right).
    pub pairs: u64,
    /// Signals sent and signals whose frame failed.
    pub signals: u64,
    pub failed: u64,
}

/// Every connection sends `frames` frames of `batch` signals, `window` of
/// them in flight (`batch == 1`: one `SignalSync` frame per signal;
/// otherwise `SignalBatch` frames of whole `seq_a`,`seq_b` pairs), the
/// next as soon as the oldest is answered.
pub fn closed_loop(
    rig: &Rig<SentinelClient>,
    values: &[i64],
    batch: usize,
    window: usize,
    frames: usize,
) -> Closed {
    assert!(batch == 1 || batch.is_multiple_of(2), "batches hold whole pairs");
    let parts: Vec<Closed> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .conns
            .iter()
            .enumerate()
            .map(|(ci, client)| {
                s.spawn(move || {
                    let mut out = Closed::default();
                    let mut inflight: VecDeque<(Instant, Pending)> = VecDeque::new();
                    let mut frame = 0usize;
                    loop {
                        if inflight.len() < window && frame < frames {
                            let value = |j: usize| {
                                values[((frame * batch + j) * WIRE_CONNECTIONS + ci) % values.len()]
                            };
                            let t0 = Instant::now();
                            let sent = if batch == 1 {
                                let payload = Value::obj([
                                    ("event", Value::str(EVENTS[frame % 2])),
                                    ("params", params_to_json(&wire_params(value(0)))),
                                ]);
                                client.send(Opcode::SignalSync, payload)
                            } else {
                                let params: Vec<_> =
                                    (0..batch).map(|j| wire_params(value(j))).collect();
                                let signals: Vec<BatchSignal<'_>> = params
                                    .iter()
                                    .enumerate()
                                    .map(|(j, p)| (EVENTS[j % 2], p.as_slice(), None))
                                    .collect();
                                client.send_batch(&signals)
                            };
                            out.signals += batch as u64;
                            match sent {
                                Ok(p) => inflight.push_back((t0, p)),
                                Err(_) => out.failed += batch as u64,
                            }
                            frame += 1;
                            continue;
                        }
                        let Some((t0, pending)) = inflight.pop_front() else { break };
                        let reply = pending.wait();
                        let at = Instant::now();
                        let get = |k| reply.as_ref().ok().and_then(|r| r.get(k)?.as_u64());
                        let accepted = if batch == 1 { Some(1) } else { get("accepted") };
                        match (accepted, get("detections")) {
                            (Some(a), Some(d)) if a == batch as u64 => {
                                out.samples.push((at, ns_u32(at - t0)));
                                out.pairs += d;
                            }
                            // Busy, error or lost reply.
                            _ => out.failed += batch as u64,
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client")).collect()
    });
    let mut all = Closed::default();
    for p in parts {
        all.samples.extend(p.samples);
        all.pairs += p.pairs;
        all.signals += p.signals;
        all.failed += p.failed;
    }
    all
}

// --- open loop ---------------------------------------------------------------

/// One fixed-rate step of the open loop.
pub struct Step {
    pub rate_per_s: u64,
    pub sent: u64,
    pub failed: u64,
    pub pairs: u64,
    /// Replies that arrived within the step's own duration.
    pub latency_samples: u64,
    /// Latency from the intended send time, over the step's windows
    /// ([`OPEN_WINDOW_SAMPLES`] consecutive replies each): the quiet decile
    /// of their medians and the median of their p99s (`stats::summarize`).
    pub p50_us: f64,
    pub p99_us: f64,
    /// Fewest samples beyond a window's p99.
    pub beyond_p99_min: u64,
    /// How late the generator issued its sends, p99.
    pub lag_p99_us: f64,
    pub inflight_mid: u64,
    pub inflight_end: u64,
    pub inflight_max: u64,
    /// Share of one CPU the child used during the step.
    pub busy_frac: f64,
}

impl Step {
    /// Generator kept its schedule: otherwise the step is invalid, not slow.
    pub fn valid(&self) -> bool {
        self.lag_p99_us <= MAX_LAG_P99_US
    }

    /// p99 within the limit, nothing failed, and no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0
            && self.p99_us <= SLO_P99_US
            && self.inflight_end <= self.inflight_mid + SLO_BACKLOG_SLACK
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("rate_per_s", Value::UInt(self.rate_per_s)),
            ("sent", Value::UInt(self.sent)),
            ("failed", Value::UInt(self.failed)),
            ("latency_p50_us", Value::Float(self.p50_us)),
            ("latency_p99_us", Value::Float(self.p99_us)),
            ("beyond_p99_min", Value::UInt(self.beyond_p99_min)),
            ("lag_p99_us", Value::Float(self.lag_p99_us)),
            ("inflight_mid", Value::UInt(self.inflight_mid)),
            ("inflight_end", Value::UInt(self.inflight_end)),
            ("inflight_max", Value::UInt(self.inflight_max)),
            ("server_busy_frac", Value::Float(self.busy_frac)),
            ("valid", Value::Bool(self.valid())),
            ("meets_slo", Value::Bool(self.meets_slo())),
        ])
    }
}

/// Offers `rate` signals/s for `dur`, then waits for every reply.
pub fn open_step(
    rig: &mut Rig<Conn>,
    values: &[i64],
    rate: u64,
    dur: Duration,
) -> Result<Step, String> {
    let cpu0 = rig.server.cpu_seconds();
    let Driven { start, samples, mut lag_ns, sent, failed, pairs, inflight_max } =
        loadgen::drive(&mut rig.conns, values, Pace::Rate(rate), Stop::After(dur))?;
    let busy_frac = match (cpu0, rig.server.cpu_seconds()) {
        (Some(a), Some(b)) => (b - a) / start.elapsed().as_secs_f64(),
        _ => 0.0,
    };
    // Replies that arrived within the step; later ones are its backlog.
    let within = samples.partition_point(|&(at, _)| at < start + dur);
    let windows = stats::windows_by_count(&samples[..within], OPEN_WINDOW_SAMPLES);
    let (p50_us, p99_us, beyond_p99_min) = if windows.is_empty() {
        (f64::INFINITY, f64::INFINITY, 0)
    } else {
        let sum = stats::summarize(&windows);
        (sum.p50_us, sum.p99_us, sum.beyond_p99_min)
    };
    // Requests in flight at `t` into the step: due by then minus answered
    // by then. Taken as the median of 33 instants around the midpoint and
    // of 33 in the last tenth, so that one host stall at the wrong moment
    // does not read as a growing backlog.
    let inflight_around = |from: f64, to: f64| {
        let probes: Vec<f64> = (0..33)
            .map(|i| {
                let t = dur.mul_f64(from + (to - from) * f64::from(i) / 32.0);
                let due = ((t.as_secs_f64() * rate as f64) as u64 + 1).min(sent);
                let answered = samples.partition_point(|&(at, _)| at <= start + t);
                due.saturating_sub(answered as u64) as f64
            })
            .collect();
        median(&probes) as u64
    };
    let lag_windows: Vec<f64> =
        lag_ns.chunks_mut(OPEN_WINDOW_SAMPLES).map(|w| quantile(w, 0.99) / 1e3).collect();
    Ok(Step {
        rate_per_s: rate,
        sent,
        failed,
        pairs,
        latency_samples: within as u64,
        p50_us,
        p99_us,
        beyond_p99_min,
        lag_p99_us: median(&lag_windows),
        inflight_mid: inflight_around(0.45, 0.55),
        inflight_end: inflight_around(0.90, 1.00),
        inflight_max,
        busy_frac,
    })
}

/// Highest frozen rate that meets the SLO in a valid step (a lower step
/// that a host stall spoiled does not take it away); 0 when none does.
pub fn sustained_rate(steps: &[Step]) -> u64 {
    steps.iter().filter(|s| s.valid() && s.meets_slo()).map(|s| s.rate_per_s).max().unwrap_or(0)
}

pub fn run_open(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let values = crate::gen::wire_values(seed, 65_536);
    let (mut rig, setup_s) = set_up_repeated(|_| Rig::<Conn>::set_up(&values))?;
    let (fired0, hits0) = rig.fired()?;

    // Before each of the six frozen rates (in ascending order), a segment
    // of the saturated closed loop of the same frames over the same
    // connections: what the server takes when no schedule limits it.
    let segment = Duration::from_secs_f64(seconds * CLOSED_SHARE / OPEN_RATES.len() as f64);
    let per_segment = (segment.as_millis() as u64 / CLOSED_WINDOW_MS).max(1) as usize;
    let mut closed_windows = Vec::new();
    let (mut closed_sent, mut closed_failed, mut closed_pairs) = (0, 0, 0);
    let mut steps = Vec::new();
    for (i, &rate) in OPEN_RATES.iter().enumerate() {
        let closed = loadgen::drive(
            &mut rig.conns,
            &values,
            Pace::Window(CLOSED_WINDOW),
            Stop::After(segment),
        )?;
        closed_windows.extend(stats::windows_by_completion(
            closed.start,
            segment,
            per_segment,
            &closed.samples,
        ));
        closed_sent += closed.sent;
        closed_failed += closed.failed;
        closed_pairs += closed.pairs;
        let share = if i == REFERENCE_STEP { REFERENCE_SHARE } else { STEP_SHARE };
        steps.push(open_step(&mut rig, &values, rate, Duration::from_secs_f64(seconds * share))?);
    }
    let saturated = stats::summarize(&closed_windows);
    let reference = &steps[REFERENCE_STEP];

    let (fired1, hits1) = rig.fired()?;
    let peak_rss_mb = rig.server.peak_rss_mb().ok_or("no VmHWM for the child")?;

    // Zero-loss oracle: every reply arrived, every `seq_b` closed exactly
    // one pair, and each pair fired exactly two immediate rules.
    let sent: u64 = closed_sent + steps.iter().map(|s| s.sent).sum::<u64>();
    let failed: u64 = closed_failed + steps.iter().map(|s| s.failed).sum::<u64>();
    let pairs_sent = sent / 2;
    let pairs_seen: u64 = closed_pairs + steps.iter().map(|s| s.pairs).sum::<u64>();
    let mut out = Outcome::new("wire_open");
    out.check("every reply arrived", failed == 0, format!("{failed} of {sent} failed"));
    out.check(
        "each seq_b closed one pair",
        pairs_seen == pairs_sent,
        format!("{pairs_seen} detections for {pairs_sent} pairs"),
    );
    out.check(
        "fired rules advanced by 2 x pairs",
        fired1 - fired0 == graphs::WIRE_FIRINGS_PER_PAIR * pairs_sent
            && hits1 - hits0 == pairs_sent,
        format!("fired +{}, cascade_count +{}, pairs {pairs_sent}", fired1 - fired0, hits1 - hits0),
    );
    // A late generator makes a step invalid, not the outputs wrong: it is
    // reported, recorded with the steps and kept out of the sustained
    // rate, but fails nothing.
    let invalid: Vec<u64> = steps.iter().filter(|s| !s.valid()).map(|s| s.rate_per_s).collect();
    if !invalid.is_empty() {
        eprintln!(
            "wire_open: INVALID steps (generator lag p99 > {MAX_LAG_P99_US} us): {invalid:?}"
        );
    }
    let lost = pairs_sent.abs_diff(pairs_seen) + (fired1 - fired0).abs_diff(2 * pairs_sent) / 2;
    out.attempted = sent;
    out.failed = failed + lost;

    out.metric("setup_s", setup_s, SETUP_REPEATS as u64);
    out.metric("throughput_per_s", saturated.throughput_per_s, saturated.samples);
    out.metric("latency_p50_us", reference.p50_us, reference.latency_samples);
    out.metric("latency_p99_us", reference.p99_us, reference.latency_samples);
    out.metric("sustained_rate_per_s", sustained_rate(&steps) as f64, steps.len() as u64);
    out.metric("peak_rss_mb", peak_rss_mb, 1);
    out.detail = Value::obj([
        ("valid_at_every_rate", Value::Bool(invalid.is_empty())),
        ("closed_loop_latency_p50_us", Value::Float(saturated.p50_us)),
        ("closed_loop_window_throughput_per_s", stats::window_throughputs(&closed_windows)),
        ("steps", Value::Arr(steps.iter().map(Step::to_json).collect())),
    ]);
    Ok(out)
}

// --- wire_durable ------------------------------------------------------------

/// What the durable run measured; `run_durable` turns it into an
/// [`Outcome`], the ladder reads the per-layer parts.
pub struct DurableRun {
    pub setup_s: f64,
    pub signals: u64,
    /// Throughput (signals/s) and batch-frame latencies as the wall clock
    /// saw them.
    pub summary: stats::WindowSummary,
    /// Mean wall time of the server's group-commit flushes during the run,
    /// and flushes (fsyncs) per signal.
    pub fsync_mean_us: f64,
    pub fsyncs_per_signal: f64,
    pub failed: u64,
    pub pairs_seen: u64,
    pub fired: u64,
    pub peak_rss_mb: f64,
    /// Server `durability` stats just before the kill.
    pub durability: Value,
    pub journal_bytes: u64,
    pub acked_records: u64,
    pub recovery_s: Vec<f64>,
    /// `recovery-report.json` of each restart.
    pub reports: Vec<Value>,
    /// Whether a post-restart `seq_b` completed the pre-kill `seq_a`.
    pub pair_survived: bool,
}

/// Runs `signals` signals durably, kills the server, and restarts it
/// `restarts` times over copies of the killed directory. `scratch` is
/// emptied first and left holding the directories.
pub fn durable_run(
    seed: u64,
    signals: u64,
    restarts: usize,
    windows: usize,
    scratch: &Path,
) -> Result<DurableRun, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| io("create scratch", e))?;
    let values = crate::gen::wire_values(seed, 65_536);
    let (rig, setup_s) = set_up_repeated(|i| {
        Rig::<SentinelClient>::set_up(Some(&scratch.join(format!("data-{i}"))), &values)
    })?;
    let data_dir = scratch.join(format!("data-{}", SETUP_REPEATS - 1));
    let before = rig.stats()?;

    let frames = (signals as usize / (DURABLE_BATCH * WIRE_CONNECTIONS)).max(1);
    let signals = (frames * DURABLE_BATCH * WIRE_CONNECTIONS) as u64;
    let start = Instant::now();
    let Closed { samples, pairs: pairs_seen, failed, .. } =
        closed_loop(&rig, &values, DURABLE_BATCH, DURABLE_INFLIGHT, frames);
    let span = start.elapsed();
    let mut summary =
        stats::summarize(&stats::windows_by_completion(start, span, windows, &samples));
    summary.throughput_per_s *= DURABLE_BATCH as f64;
    // A window holds too few frames for a p99 with ten samples beyond it;
    // the tail is taken over the whole run.
    let mut all_ns: Vec<u32> = samples.iter().map(|&(_, ns)| ns).collect();
    summary.p99_us = quantile(&mut all_ns, 0.99) / 1e3;
    summary.beyond_p99_min = (all_ns.len() - (0.99 * all_ns.len() as f64).ceil() as usize) as u64;
    let after = rig.stats()?;
    let delta = |path: &[&str]| (stat(&after, path) - stat(&before, path)) as f64;
    // The server times its own group-commit flushes: the device's part of
    // a signal, which is this host's and drifts by the hour.
    let flush = ["durability", "group_commit_flush"];
    let fsync_mean_us = delta(&[flush[0], flush[1], "sum_ns"])
        / delta(&[flush[0], flush[1], "count"]).max(1.0)
        / 1e3;
    let fsyncs_per_signal = delta(&["durability", "journal_fsyncs"]) / signals as f64;

    // One more acknowledged `seq_a`, left pending across the crash.
    let pending_a = rig.conns[0].signal_sync("seq_a", &wire_params(0), None).is_ok();
    let durability = rig.stats()?.get("durability").cloned().unwrap_or(Value::Null);
    let acked_records = as_f64(durability.get("journal_appends")).unwrap_or(0.0) as u64;
    let peak_rss_mb = rig.server.peak_rss_mb().ok_or("no VmHWM for the child")?;
    let Rig { conns, admin, server, .. } = rig;
    server.kill();
    drop((conns, admin));
    let journal_bytes = child::journal_bytes(&data_dir).map_err(|e| io("size data dir", e))?;

    let mut recovery_s = Vec::new();
    let mut reports = Vec::new();
    let mut pair_survived = pending_a;
    for r in 0..restarts {
        let copy = scratch.join(format!("restart-{r}"));
        child::copy_dir(&data_dir, &copy).map_err(|e| io("copy data dir", e))?;
        let server = Server::spawn(Some(&copy), false)?;
        recovery_s.push(server.ready_after.as_secs_f64());
        let report = std::fs::read_to_string(copy.join(RECOVERY_REPORT_FILE))
            .map_err(|e| io("read recovery report", e))?;
        reports.push(Value::parse(&report).map_err(|e| format!("recovery report: {e:?}"))?);
        if r == 0 {
            let c = connect(&server.addr, "bench-after-restart")?;
            pair_survived &= c.signal_sync("seq_b", &wire_params(0), None).ok() == Some(1);
        }
        server.kill();
    }
    Ok(DurableRun {
        setup_s,
        signals,
        summary,
        fsync_mean_us,
        fsyncs_per_signal,
        failed,
        pairs_seen,
        fired: delta(&["scheduler", "fired", "immediate"]) as u64,
        peak_rss_mb,
        durability,
        journal_bytes,
        acked_records,
        recovery_s,
        reports,
        pair_survived,
    })
}

impl DurableRun {
    /// Adds the run's oracle checks to `out` and returns how many
    /// operations they found lost.
    pub fn check(&self, out: &mut Outcome) -> u64 {
        let pairs = self.signals / 2;
        out.check(
            "every batch was accepted whole",
            self.failed == 0,
            format!("{} of {} signals failed", self.failed, self.signals),
        );
        out.check(
            "each seq_b closed one pair",
            self.pairs_seen == pairs,
            format!("{} detections for {pairs} pairs", self.pairs_seen),
        );
        out.check(
            "fired rules advanced by 2 x pairs",
            self.fired == graphs::WIRE_FIRINGS_PER_PAIR * pairs,
            format!("fired +{}, pairs {pairs}", self.fired),
        );
        let short: Vec<u64> = self
            .reports
            .iter()
            .map(|r| r.get("journal_records").and_then(Value::as_u64).unwrap_or(0))
            .filter(|&n| n < self.acked_records)
            .collect();
        out.check(
            "every restart recovered at least the acknowledged records",
            short.is_empty(),
            format!("acked {}, restarts that found fewer: {short:?}", self.acked_records),
        );
        out.check(
            "a post-restart seq_b completed the pre-kill seq_a",
            self.pair_survived,
            String::new(),
        );
        pairs.abs_diff(self.pairs_seen)
            + self.fired.abs_diff(2 * pairs) / 2
            + short.len() as u64
            + u64::from(!self.pair_survived)
    }
}

pub fn run_durable(seed: u64, out_dir: &Path) -> Result<Outcome, String> {
    let run = durable_run(
        seed,
        DURABLE_SIGNALS,
        DURABLE_RESTARTS,
        DURABLE_WINDOWS,
        &out_dir.join("wire_durable"),
    )?;
    let mut out = Outcome::new("wire_durable");
    let lost = run.check(&mut out);
    out.attempted = run.signals;
    out.failed = run.failed + lost;
    out.metric("setup_s", run.setup_s, SETUP_REPEATS as u64);
    out.metric("throughput_per_s", run.summary.throughput_per_s, run.summary.samples);
    out.metric("latency_p50_us", run.summary.p50_us, run.summary.samples);
    out.metric("latency_p99_us", run.summary.p99_us, run.summary.samples);
    out.metric("recovery_s", median(&run.recovery_s), run.recovery_s.len() as u64);
    out.metric("journal_bytes_per_signal", run.journal_bytes as f64 / run.signals as f64, 1);
    out.metric("peak_rss_mb", run.peak_rss_mb, 1);
    out.detail = Value::obj([
        ("signals", Value::UInt(run.signals)),
        ("fsync_mean_us", Value::Float(run.fsync_mean_us)),
        ("fsyncs_per_signal", Value::Float(run.fsyncs_per_signal)),
        ("beyond_p99_min", Value::UInt(run.summary.beyond_p99_min)),
        ("journal_bytes", Value::UInt(run.journal_bytes)),
        ("acked_records", Value::UInt(run.acked_records)),
        ("recovery_s", Value::Arr(run.recovery_s.iter().map(|&s| Value::Float(s)).collect())),
        ("durability", without_bulk(&run.durability)),
        ("recovery_report", run.reports.first().map_or(Value::Null, without_bulk)),
    ]);
    Ok(out)
}

/// `v` without the parts that are bulk rather than figures: histogram
/// bucket arrays and the flight-recorder dump.
fn without_bulk(v: &Value) -> Value {
    match v {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "buckets" && k != "flight_recorder")
                .map(|(k, v)| (k.clone(), without_bulk(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}
