//! Load generator for `sentinel-server`: N concurrent clients drive a
//! SEQ + cascade rule workload over the wire and report throughput and
//! latency percentiles as one `bench{...}` JSON line.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin sentinel-loadgen -- [FLAGS]
//!
//!   --addr <host:port>  server address (default 127.0.0.1:7878)
//!   --clients <N>       concurrent client connections (default 8)
//!   --iters <N>         event pairs per client (default 200); with
//!                       `--batch` this is *batches* per client
//!   --batch <B>         pack B complete `seq_a`,`seq_b` pairs into each
//!                       `SignalBatch` frame (default 0 — one signal per
//!                       request, the NET-1 shape)
//!   --pipeline <P>      keep up to P batch frames in flight per client
//!                       before waiting on the oldest (default 1;
//!                       requires `--batch`)
//!   --traced            stamp signals with per-client trace ids (pair
//!                       with `sentinel-server --tracing`; not available
//!                       with `--batch`)
//!   --c10k <LIST>       connection-scaling sweep: for each comma-
//!                       separated count, hold that many extra *idle*
//!                       connections open while the active workload
//!                       above runs, and record the server's RSS (via
//!                       the pid in its stats), accept health, and
//!                       throughput. Writes one JSON report to
//!                       `--net-out` and exits non-zero on any lost
//!                       signal or failed/refused connection. Point it
//!                       at a server started with `--max-connections`
//!                       comfortably above the largest count
//!   --net-out <PATH>    where `--c10k` writes its report
//!                       (default BENCH_net.json)
//!   --shutdown          send a Shutdown frame when done (for CI)
//!   --promote           send a Promote frame to --addr and exit: turns a
//!                       read-only replica into a writable primary
//!   --repl-status       print the node's replication stats JSON and exit
//!                       (`role`, `tip`, follower lags / applied watermark)
//! ```
//!
//! The workload: explicit events `seq_a`, `seq_b`, `cascade`; composite
//! `pair = seq_a ; seq_b` (Chronicle context); rule `pair_watch` raises
//! `cascade` on every pair; rule `cascade_count` counts the cascades
//! server-side. Each client alternates `seq_a`, `seq_b` synchronously, so
//! in every interleaving each `seq_b` closes exactly one pair:
//! `pairs = clients × iters`, and with both rules immediate the server's
//! fired-rule count must advance by exactly `2 × pairs` — the zero-lost
//! check. The process exits non-zero on any lost signal, decode error, or
//! failed client.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::detector::Value;
use sentinel_core::obs::{json, Histogram};
use sentinel_net::{ClientError, RuleSpec, SentinelClient};

struct Args {
    addr: String,
    clients: usize,
    iters: usize,
    batch: usize,
    pipeline: usize,
    c10k: Option<Vec<usize>>,
    net_out: String,
    traced: bool,
    shutdown: bool,
    promote: bool,
    repl_status: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        clients: 8,
        iters: 200,
        batch: 0,
        pipeline: 1,
        c10k: None,
        net_out: "BENCH_net.json".to_string(),
        traced: false,
        shutdown: false,
        promote: false,
        repl_status: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--clients" => args.clients = value("--clients").parse().expect("--clients <N>"),
            "--iters" => args.iters = value("--iters").parse().expect("--iters <N>"),
            "--batch" => args.batch = value("--batch").parse().expect("--batch <B>"),
            "--pipeline" => args.pipeline = value("--pipeline").parse().expect("--pipeline <P>"),
            "--c10k" => {
                let counts: Vec<usize> = value("--c10k")
                    .split(',')
                    .map(|w| w.trim().parse().expect("--c10k N[,N...]"))
                    .collect();
                assert!(!counts.is_empty(), "--c10k needs connection counts");
                args.c10k = Some(counts);
            }
            "--net-out" => args.net_out = value("--net-out"),
            "--traced" => args.traced = true,
            "--shutdown" => args.shutdown = true,
            "--promote" => args.promote = true,
            "--repl-status" => args.repl_status = true,
            "--help" | "-h" => {
                println!(
                    "sentinel-loadgen [--addr HOST:PORT] [--clients N] [--iters N] \
                     [--batch B] [--pipeline P] \
                     [--c10k N,N,...] [--net-out PATH] \
                     [--traced] [--shutdown] [--promote] [--repl-status]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.traced && args.batch > 0 {
        eprintln!("--traced is not available with --batch (batch frames carry no trace ids)");
        std::process::exit(2);
    }
    if args.pipeline > 1 && args.batch == 0 {
        eprintln!("--pipeline requires --batch");
        std::process::exit(2);
    }
    args
}

/// Stats-JSON helpers (absent paths read as 0 — e.g. `rule_hits` before
/// the first firing).
fn stat_u64(stats: &json::Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    v.as_u64().unwrap_or(0)
}

/// Values of every point in a scraped time-series ring, oldest first.
fn series_values(series: &json::Value, name: &str) -> Vec<u64> {
    let Some(points) = series.get(name).and_then(|s| s.get("points")).and_then(|p| p.as_arr())
    else {
        return Vec::new();
    };
    points.iter().filter_map(|p| p.as_arr()?.get(1)?.as_u64()).collect()
}

/// p99 over raw gauge samples (nearest-rank; 0 when empty).
fn samples_p99(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((0.99 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Final telemetry snapshot for the TCP bench line, folded from one
/// `MetricsScrape`: per-shard queue-depth p99 over the ring's points and
/// the newest fsync (group-commit flush) p99 gauge. `Null` when the
/// server runs with `--no-telemetry` or predates the scrape opcode.
fn scrape_telemetry(admin: &SentinelClient) -> json::Value {
    let Ok(scrape) = admin.metrics_scrape() else { return json::Value::Null };
    let telemetry = scrape.get("telemetry").cloned().unwrap_or(json::Value::Null);
    if telemetry == json::Value::Null {
        return json::Value::Null;
    }
    let series = telemetry.get("series").cloned().unwrap_or(json::Value::Null);
    let mut shards: Vec<u64> = match &series {
        json::Value::Obj(pairs) => pairs
            .iter()
            .filter_map(|(name, _)| {
                name.strip_prefix("detector.shards.")?.strip_suffix(".queue_depth")?.parse().ok()
            })
            .collect(),
        _ => Vec::new(),
    };
    shards.sort_unstable();
    shards.dedup();
    let shard_queue = json::Value::Arr(
        shards
            .into_iter()
            .map(|shard| {
                let values =
                    series_values(&series, &format!("detector.shards.{shard}.queue_depth"));
                let max = values.iter().copied().max().unwrap_or(0);
                json::Value::obj([
                    ("shard", json::Value::UInt(shard)),
                    ("queue_depth_p99", json::Value::UInt(samples_p99(values))),
                    ("queue_depth_max", json::Value::UInt(max)),
                ])
            })
            .collect(),
    );
    let fsync_p99 = series_values(&series, "durability.group_commit_flush.p99_ns")
        .last()
        .copied()
        .map_or(json::Value::Null, json::Value::UInt);
    json::Value::obj([("shard_queue", shard_queue), ("fsync_p99_ns", fsync_p99)])
}

/// Signals one event, retrying while the server reports backpressure.
fn signal_retry(
    client: &SentinelClient,
    event: &str,
    trace: Option<u64>,
    busy: &AtomicU64,
) -> Result<u64, ClientError> {
    loop {
        let res = match trace {
            Some(t) => client.signal_sync_traced(event, &[], None, t),
            None => client.signal_sync(event, &[], None),
        };
        match res {
            Err(ClientError::Busy { .. }) => {
                busy.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
            other => return other,
        }
    }
}

struct ClientOutcome {
    requests: u64,
    pairs_observed: u64,
    failed: bool,
}

fn run_client(
    addr: &str,
    index: usize,
    args: &Args,
    hist: &Histogram,
    busy: &AtomicU64,
) -> ClientOutcome {
    let name = format!("loadgen-{index}");
    let client =
        match SentinelClient::connect_with_backoff(addr, &name, 10, Duration::from_millis(50)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{name}: connect failed: {e}");
                return ClientOutcome { requests: 0, pairs_observed: 0, failed: true };
            }
        };
    if args.batch > 0 {
        return run_client_batched(&client, &name, args, hist, busy);
    }
    let trace = args.traced.then_some(index as u64 + 1);
    let mut out = ClientOutcome { requests: 0, pairs_observed: 0, failed: false };
    for _ in 0..args.iters {
        for event in ["seq_a", "seq_b"] {
            let t0 = Instant::now();
            match signal_retry(&client, event, trace, busy) {
                Ok(detections) => {
                    hist.record_duration(t0.elapsed());
                    out.requests += 1;
                    if event == "seq_b" {
                        out.pairs_observed += detections;
                    }
                }
                Err(e) => {
                    eprintln!("{name}: {event} failed: {e}");
                    out.failed = true;
                    return out;
                }
            }
        }
    }
    out
}

/// The `--batch`/`--pipeline` path: `iters` SignalBatch frames, each
/// carrying `batch` complete `seq_a`,`seq_b` pairs, with up to
/// `pipeline` frames in flight before waiting on the oldest. A `Busy`
/// covers a whole batch and nothing of it was processed, so the batch
/// is simply resent — and because every frame holds only *complete*
/// pairs, retried frames reordering against other in-flight frames
/// cannot lose a pair.
fn run_client_batched(
    client: &SentinelClient,
    name: &str,
    args: &Args,
    hist: &Histogram,
    busy: &AtomicU64,
) -> ClientOutcome {
    const NO_PARAMS: &[(Arc<str>, Value)] = &[];
    let signals: Vec<sentinel_net::BatchSignal<'_>> = (0..args.batch)
        .flat_map(|_| [("seq_a", NO_PARAMS, None), ("seq_b", NO_PARAMS, None)])
        .collect();
    let per_batch = 2 * args.batch as u64;
    let window = args.pipeline.max(1);

    let mut out = ClientOutcome { requests: 0, pairs_observed: 0, failed: false };
    let mut inflight: VecDeque<(Instant, sentinel_net::Pending)> = VecDeque::new();
    let mut to_send = args.iters;
    let mut to_complete = args.iters;
    while to_complete > 0 {
        if to_send > 0 && inflight.len() < window {
            match client.send_batch(&signals) {
                Ok(p) => {
                    inflight.push_back((Instant::now(), p));
                    to_send -= 1;
                }
                Err(e) => {
                    eprintln!("{name}: batch send failed: {e}");
                    out.failed = true;
                    return out;
                }
            }
            continue;
        }
        let (t0, pending) = inflight.pop_front().expect("to_send + inflight covers to_complete");
        match pending.wait() {
            Ok(reply) => {
                hist.record_duration(t0.elapsed());
                let get = |k| reply.get(k).and_then(json::Value::as_u64).unwrap_or(0);
                let accepted = get("accepted");
                if accepted != per_batch {
                    eprintln!("{name}: batch accepted {accepted} of {per_batch}");
                    out.failed = true;
                    return out;
                }
                out.requests += accepted;
                out.pairs_observed += get("detections");
                to_complete -= 1;
            }
            Err(ClientError::Busy { .. }) => {
                busy.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
                to_send += 1;
            }
            Err(e) => {
                eprintln!("{name}: batch failed: {e}");
                out.failed = true;
                return out;
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();

    let admin = match SentinelClient::connect_with_backoff(
        &args.addr,
        "loadgen-admin",
        20,
        Duration::from_millis(50),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach server at {}: {e}", args.addr);
            std::process::exit(1);
        }
    };

    // Admin-only modes: act on --addr and exit before any workload.
    if args.promote {
        match admin.promote() {
            Ok(promoted) => {
                println!("promote{{\"addr\":\"{}\",\"promoted\":{promoted}}}", args.addr);
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("promote failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.repl_status {
        match admin.stats() {
            Ok(stats) => {
                let repl = stats.get("replication").cloned().unwrap_or(json::Value::Null);
                println!("repl{repl}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("stats failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Define the workload; tolerate "already defined" so repeated runs
    // against a long-lived server work (counts below are deltas).
    let defs: [Result<u64, ClientError>; 6] = [
        admin.define_event("seq_a", None),
        admin.define_event("seq_b", None),
        admin.define_event("cascade", None),
        admin.define_event("pair", Some("seq_a ; seq_b")),
        admin.define_rule(&RuleSpec::raise("pair_watch", "pair", "cascade").context("chronicle")),
        admin.define_rule(&RuleSpec::count("cascade_count", "cascade")),
    ];
    for def in defs {
        match def {
            Ok(_) | Err(ClientError::Server { .. }) => {}
            Err(e) => {
                eprintln!("workload definition failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(counts) = args.c10k.clone() {
        run_c10k(&args, &admin, &counts);
    }

    let r = run_workload(&args, &admin);
    let line = json::Value::obj([
        ("bench", json::Value::str("net_loadgen")),
        ("clients", json::Value::UInt(args.clients as u64)),
        ("iters", json::Value::UInt(args.iters as u64)),
        ("batch", json::Value::UInt(args.batch as u64)),
        ("pipeline", json::Value::UInt(args.pipeline as u64)),
        ("requests", json::Value::UInt(r.requests)),
        ("pairs_expected", json::Value::UInt(r.pairs_expected)),
        ("pairs_observed", json::Value::UInt(r.pairs_observed)),
        ("rule_hits", json::Value::UInt(r.hits)),
        ("fired_immediate", json::Value::UInt(r.fired)),
        ("lost", json::Value::Int(r.lost)),
        ("elapsed_ms", json::Value::Float(r.elapsed_ms)),
        ("throughput_rps", json::Value::Float(r.throughput_rps)),
        ("p50_us", json::Value::Float(r.p50_us)),
        ("p95_us", json::Value::Float(r.p95_us)),
        ("p99_us", json::Value::Float(r.p99_us)),
        ("mean_us", json::Value::Float(r.mean_us)),
        ("busy_retries", json::Value::UInt(r.busy_retries)),
        ("decode_errors", json::Value::UInt(r.decode_errors)),
        ("failed_clients", json::Value::UInt(r.failed)),
        ("telemetry", scrape_telemetry(&admin)),
    ]);
    println!("bench{line}");

    if args.shutdown {
        if let Err(e) = admin.shutdown_server() {
            eprintln!("shutdown request failed: {e}");
        }
    }

    if !r.ok() {
        eprintln!(
            "FAILED: expected {} pairs \
             (observed {}, rule hits {}, lost {}, \
             decode errors {}, failed clients {})",
            r.pairs_expected, r.pairs_observed, r.hits, r.lost, r.decode_errors, r.failed
        );
        std::process::exit(1);
    }
}

/// One measured run of the TCP workload with exact-count accounting.
struct WorkloadResult {
    requests: u64,
    pairs_expected: u64,
    pairs_observed: u64,
    hits: u64,
    fired: u64,
    decode_errors: u64,
    lost: i64,
    failed: u64,
    busy_retries: u64,
    elapsed_ms: f64,
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
}

impl WorkloadResult {
    fn ok(&self) -> bool {
        self.failed == 0
            && self.decode_errors == 0
            && self.lost == 0
            && self.pairs_observed == self.pairs_expected
            && self.hits == self.pairs_expected
    }
}

/// Runs `clients` workers through the workload and folds the zero-loss
/// accounting from server-side stat deltas (so repeated runs against one
/// long-lived server stay exact).
fn run_workload(args: &Args, admin: &SentinelClient) -> WorkloadResult {
    let before = admin.stats().unwrap_or_else(|e| {
        eprintln!("stats failed: {e}");
        std::process::exit(1);
    });
    let fired0 = stat_u64(&before, &["scheduler", "fired", "immediate"]);
    let hits0 = stat_u64(&before, &["rule_hits", "cascade_count"]);
    let decode0 = stat_u64(&before, &["net", "decode_errors"]);

    let hist = Histogram::new();
    let busy = AtomicU64::new(0);
    let t0 = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let (hist, busy) = (&hist, &busy);
                s.spawn(move || run_client(&args.addr, i, args, hist, busy))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = t0.elapsed();

    let after = admin.stats().unwrap_or_else(|e| {
        eprintln!("stats failed: {e}");
        std::process::exit(1);
    });
    let fired = stat_u64(&after, &["scheduler", "fired", "immediate"]) - fired0;
    let hits = stat_u64(&after, &["rule_hits", "cascade_count"]) - hits0;
    let decode_errors = stat_u64(&after, &["net", "decode_errors"]) - decode0;

    let failed = outcomes.iter().filter(|o| o.failed).count() as u64;
    let requests: u64 = outcomes.iter().map(|o| o.requests).sum();
    let pairs_observed: u64 = outcomes.iter().map(|o| o.pairs_observed).sum();
    let pairs_expected = (args.clients * args.iters * args.batch.max(1)) as u64;
    // Every pair fires pair_watch + cascade_count, both immediate.
    let lost = (2 * pairs_expected) as i64 - fired as i64;

    let snap = hist.snapshot();
    WorkloadResult {
        requests,
        pairs_expected,
        pairs_observed,
        hits,
        fired,
        decode_errors,
        lost,
        failed,
        busy_retries: busy.load(Ordering::Relaxed),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: snap.p50_ns() as f64 / 1e3,
        p95_us: snap.p95_ns() as f64 / 1e3,
        p99_us: snap.p99_ns() as f64 / 1e3,
        mean_us: snap.mean_ns() as f64 / 1e3,
    }
}

/// The server's resident set in kB, read from `/proc/<pid>/status`
/// (`pid` comes from the server's own stats; `None` off-host or against
/// a server that predates the field).
fn server_rss_kb(pid: u64) -> Option<u64> {
    if pid == 0 {
        return None;
    }
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `--c10k`: connection-scaling sweep. For each count, holds that many
/// extra idle connections open (never sending a byte — they must ride
/// the reactor untouched, exempt from stall eviction), then runs the
/// active workload alongside them and records the server's RSS, accept
/// health, and throughput. Exits non-zero on any lost signal, refused
/// or failed connection, or missing idle capacity.
fn run_c10k(args: &Args, admin: &SentinelClient, counts: &[usize]) -> ! {
    let stats0 = admin.stats().unwrap_or_else(|e| {
        eprintln!("stats failed: {e}");
        std::process::exit(1);
    });
    let pid = stat_u64(&stats0, &["net", "pid"]);
    let rss_baseline_kb = server_rss_kb(pid);

    let mut rows = Vec::new();
    let mut all_ok = true;
    for &n in counts {
        let t0 = Instant::now();
        let mut idle = Vec::with_capacity(n);
        let mut idle_failures = 0u64;
        for i in 0..n {
            match TcpStream::connect(&args.addr) {
                Ok(s) => idle.push(s),
                Err(e) => {
                    if idle_failures == 0 {
                        eprintln!("c10k: connect {i}/{n} failed: {e}");
                    }
                    idle_failures += 1;
                }
            }
        }
        let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Let every accepted socket make it off the acceptor and into an
        // event loop before measuring.
        std::thread::sleep(Duration::from_millis(300));
        let settled = admin.stats().unwrap_or_else(|e| {
            eprintln!("stats failed: {e}");
            std::process::exit(1);
        });
        let active = stat_u64(&settled, &["net", "connections_active"]);
        let refused = stat_u64(&settled, &["net", "connections_refused"]);
        let rss_idle_kb = server_rss_kb(pid);

        let r = run_workload(args, admin);
        let rss_load_kb = server_rss_kb(pid);

        // `active` counts our idle conns + admin + whatever the workload
        // had open at sample time; the floor is the idle set surviving.
        let row_ok = r.ok() && idle_failures == 0 && active >= n as u64;
        all_ok &= row_ok;
        eprintln!(
            "c10k: idle={} connect_ms={:.0} active={} rss_idle_kb={} throughput={:.0}/s lost={}",
            n,
            connect_ms,
            active,
            rss_idle_kb.unwrap_or(0),
            r.throughput_rps,
            r.lost
        );
        rows.push(json::Value::obj([
            ("connections", json::Value::UInt(n as u64)),
            ("idle_failures", json::Value::UInt(idle_failures)),
            ("connect_ms", json::Value::Float(connect_ms)),
            ("connections_active", json::Value::UInt(active)),
            ("connections_refused", json::Value::UInt(refused)),
            ("rss_idle_kb", rss_idle_kb.map_or(json::Value::Null, json::Value::UInt)),
            ("rss_load_kb", rss_load_kb.map_or(json::Value::Null, json::Value::UInt)),
            ("requests", json::Value::UInt(r.requests)),
            ("throughput_rps", json::Value::Float(r.throughput_rps)),
            ("p50_us", json::Value::Float(r.p50_us)),
            ("p99_us", json::Value::Float(r.p99_us)),
            ("lost", json::Value::Int(r.lost)),
            ("busy_retries", json::Value::UInt(r.busy_retries)),
            ("failed_clients", json::Value::UInt(r.failed)),
            ("ok", json::Value::Bool(row_ok)),
        ]));
        drop(idle);
        // Let the reactor drain 10k EOFs before the next row measures.
        std::thread::sleep(Duration::from_millis(300));
    }

    let report = json::Value::obj([
        ("bench", json::Value::str("net_c10k")),
        ("clients", json::Value::UInt(args.clients as u64)),
        ("iters", json::Value::UInt(args.iters as u64)),
        ("batch", json::Value::UInt(args.batch as u64)),
        ("pipeline", json::Value::UInt(args.pipeline as u64)),
        ("rss_baseline_kb", rss_baseline_kb.map_or(json::Value::Null, json::Value::UInt)),
        ("rows", json::Value::Arr(rows)),
    ]);
    if let Err(e) = std::fs::write(&args.net_out, format!("{report}\n")) {
        eprintln!("cannot write {}: {e}", args.net_out);
        std::process::exit(1);
    }
    println!("bench{report}");
    if args.shutdown {
        if let Err(e) = admin.shutdown_server() {
            eprintln!("shutdown request failed: {e}");
        }
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
