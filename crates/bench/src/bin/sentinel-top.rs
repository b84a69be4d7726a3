//! `sentinel-top`: a live per-shard / per-rule terminal view over a
//! running server's `MetricsScrape` opcode — `top` for the active DBMS.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin sentinel-top -- [FLAGS]
//!
//!   --addr <host:port>   server address (default 127.0.0.1:7878)
//!   --interval-ms <N>    refresh interval (default 1000)
//!   --iters <N>          exit after N refreshes (default: run forever)
//!   --once               scrape once, print, exit (no ANSI clearing;
//!                        equivalent to --iters 1 without the redraw)
//! ```
//!
//! Each refresh scrapes `{prom, telemetry}` and renders: signal/fire
//! rates over the last interval (from the time-series ring deltas),
//! per-shard queue depth / signals / contention, per-rule dispatch
//! counts, and the durability gauges when the server is durable.

use std::time::Duration;

use sentinel_core::obs::json;
use sentinel_net::SentinelClient;

struct Args {
    addr: String,
    interval: Duration,
    iters: Option<u64>,
    once: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        interval: Duration::from_millis(1000),
        iters: None,
        once: false,
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
            "--interval-ms" => {
                args.interval = Duration::from_millis(
                    value("--interval-ms").parse().expect("--interval-ms <N>"),
                );
            }
            "--iters" => args.iters = Some(value("--iters").parse().expect("--iters <N>")),
            "--once" => args.once = true,
            "--help" | "-h" => {
                println!("sentinel-top [--addr HOST:PORT] [--interval-ms N] [--iters N] [--once]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The newest point of a series, if any.
fn last_point(series: &json::Value, name: &str) -> Option<u64> {
    let points = series.get(name)?.get("points")?.as_arr()?;
    points.last()?.as_arr()?.get(1)?.as_u64()
}

/// `prefix.<middle>.suffix` series names, sorted by the numeric middle.
fn shard_labels(series: &json::Value, prefix: &str, suffix: &str) -> Vec<u64> {
    let json::Value::Obj(pairs) = series else { return Vec::new() };
    let mut out: Vec<u64> = pairs
        .iter()
        .filter_map(|(name, _)| name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Follower names carried by `repl.follower.<name>.lag` series.
fn follower_labels(series: &json::Value) -> Vec<String> {
    let json::Value::Obj(pairs) = series else { return Vec::new() };
    pairs
        .iter()
        .filter_map(|(name, _)| {
            Some(name.strip_prefix("repl.follower.")?.strip_suffix(".lag")?.to_string())
        })
        .collect()
}

/// Rule names carried by `rule.<name>.hits` series.
fn rule_labels(series: &json::Value) -> Vec<String> {
    let json::Value::Obj(pairs) = series else { return Vec::new() };
    pairs
        .iter()
        .filter_map(|(name, _)| {
            Some(name.strip_prefix("rule.")?.strip_suffix(".hits")?.to_string())
        })
        .collect()
}

fn render(scrape: &json::Value, tick: u64) {
    let telemetry = scrape.get("telemetry").cloned().unwrap_or(json::Value::Null);
    let empty = json::Value::obj([] as [(&str, json::Value); 0]);
    let series = telemetry.get("series").cloned().unwrap_or(empty);

    println!("sentinel-top — refresh {tick}");
    let signals = last_point(&series, "detector.signals").unwrap_or(0);
    let fired = last_point(&series, "scheduler.fired").unwrap_or(0);
    println!("  signals/interval: {signals:>8}    rules fired/interval: {fired:>6}");
    if let Some(p99) = last_point(&series, "scheduler.condition_p99_ns") {
        let action = last_point(&series, "scheduler.action_p99_ns").unwrap_or(0);
        println!("  condition p99: {p99:>10} ns    action p99: {action:>10} ns");
    }
    if let Some(fsync) = last_point(&series, "durability.fsync_p99_ns") {
        let appends = last_point(&series, "durability.journal_appends").unwrap_or(0);
        let ckpts = last_point(&series, "durability.checkpoints").unwrap_or(0);
        println!(
            "  journal appends/interval: {appends:>6}    fsync p99: {fsync:>10} ns    \
             checkpoints/interval: {ckpts}"
        );
    }
    if let Some(depth) = last_point(&series, "service.queue_depth") {
        let drain = last_point(&series, "service.drain_p99_ns").unwrap_or(0);
        println!("  service queue depth: {depth:>6}    drain p99: {drain:>10} ns");
    }

    // Replication: a primary carries per-follower lag series; a replica
    // carries its own apply rate and time since primary contact.
    if let Some(tip) = last_point(&series, "repl.tip") {
        let lag = last_point(&series, "repl.lag_frames").unwrap_or(0);
        let followers = follower_labels(&series);
        if followers.is_empty() {
            let applied = last_point(&series, "repl.applied").unwrap_or(0);
            let seq = last_point(&series, "repl.applied_seq").unwrap_or(0);
            let contact = last_point(&series, "repl.last_contact_ms").unwrap_or(0);
            println!(
                "  replica: applied/interval: {applied:>6}    at seq {seq} \
                 (lag {lag} frames)    last primary contact {contact} ms ago"
            );
        } else {
            println!("  primary: replication tip {tip}    max follower lag {lag} frames");
            println!("  {:<24} {:>12} {:>14}", "follower", "lag frames", "ack age ms");
            for f in followers {
                let flag = last_point(&series, &format!("repl.follower.{f}.lag")).unwrap_or(0);
                let age =
                    last_point(&series, &format!("repl.follower.{f}.ack_age_ms")).unwrap_or(0);
                println!("  {f:<24} {flag:>12} {age:>14}");
            }
        }
    }

    let shards = shard_labels(&series, "detector.shard.", ".signals");
    if !shards.is_empty() {
        println!("  {:>6} {:>12} {:>12} {:>12}", "shard", "signals/int", "contention", "queue");
        for shard in shards {
            let sig = last_point(&series, &format!("detector.shard.{shard}.signals")).unwrap_or(0);
            let con =
                last_point(&series, &format!("detector.shard.{shard}.contention")).unwrap_or(0);
            let q =
                last_point(&series, &format!("detector.shard.{shard}.queue_depth")).unwrap_or(0);
            println!("  {shard:>6} {sig:>12} {con:>12} {q:>12}");
        }
    }

    let mut rules: Vec<(String, u64)> = rule_labels(&series)
        .into_iter()
        .map(|r| {
            let hits = last_point(&series, &format!("rule.{r}.hits")).unwrap_or(0);
            (r, hits)
        })
        .collect();
    rules.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if !rules.is_empty() {
        println!("  {:<32} {:>12}", "rule", "fired/int");
        for (rule, hits) in rules.iter().take(16) {
            println!("  {rule:<32} {hits:>12}");
        }
    }
    if telemetry == json::Value::Null {
        println!("  (server telemetry is off — start the server without --no-telemetry)");
    }
}

fn main() {
    let args = parse_args();
    let client = match SentinelClient::connect(&args.addr, "sentinel-top") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect to {} failed: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let iters = if args.once { Some(1) } else { args.iters };
    let mut tick = 0u64;
    loop {
        tick += 1;
        let scrape = match client.metrics_scrape() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scrape failed: {e}");
                std::process::exit(1);
            }
        };
        if !args.once {
            // ANSI: clear screen, cursor home.
            print!("\x1b[2J\x1b[H");
        }
        render(&scrape, tick);
        if iters.is_some_and(|n| tick >= n) {
            break;
        }
        std::thread::sleep(args.interval);
    }
}
