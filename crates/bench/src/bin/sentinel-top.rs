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

/// The `<label>` of every `prefix<label>suffix` series name, in name
/// order.
fn labels(series: &json::Value, prefix: &str, suffix: &str) -> Vec<String> {
    let json::Value::Obj(pairs) = series else { return Vec::new() };
    pairs
        .iter()
        .filter_map(|(name, _)| Some(name.strip_prefix(prefix)?.strip_suffix(suffix)?.to_string()))
        .collect()
}

/// The newest points of every `prefix<label>suffix` series.
fn last_points<'a>(
    series: &'a json::Value,
    prefix: &'a str,
    suffix: &'a str,
) -> impl Iterator<Item = u64> + 'a {
    labels(series, prefix, suffix)
        .into_iter()
        .filter_map(move |l| last_point(series, &format!("{prefix}{l}{suffix}")))
}

fn render(scrape: &json::Value, tick: u64) {
    let telemetry = scrape.get("telemetry").cloned().unwrap_or(json::Value::Null);
    let empty = json::Value::obj([] as [(&str, json::Value); 0]);
    let series = telemetry.get("series").cloned().unwrap_or(empty);

    println!("sentinel-top — refresh {tick}");
    let signals = last_point(&series, "detector.signals").unwrap_or(0);
    let fired: u64 = last_points(&series, "scheduler.fired.", "").sum();
    println!("  signals/interval: {signals:>8}    rules fired/interval: {fired:>6}");
    if let Some(p99) = last_point(&series, "scheduler.condition.p99_ns") {
        let action = last_point(&series, "scheduler.action.p99_ns").unwrap_or(0);
        println!("  condition p99: {p99:>10} ns    action p99: {action:>10} ns");
    }
    if let Some(fsync) = last_point(&series, "durability.group_commit_flush.p99_ns") {
        let appends = last_point(&series, "durability.journal_appends").unwrap_or(0);
        let ckpts = last_point(&series, "durability.checkpoints").unwrap_or(0);
        println!(
            "  journal appends/interval: {appends:>6}    fsync p99: {fsync:>10} ns    \
             checkpoints/interval: {ckpts}"
        );
    }
    if let Some(depth) = last_point(&series, "service.queue_depth") {
        let drain = last_point(&series, "service.drain_latency.p99_ns").unwrap_or(0);
        println!("  service queue depth: {depth:>6}    drain p99: {drain:>10} ns");
    }

    // Replication: a primary carries per-follower lag series; a replica
    // carries its own apply rate and time since primary contact.
    if let Some(tip) = last_point(&series, "replication.tip") {
        let followers = labels(&series, "replication.followers.", ".lag");
        if followers.is_empty() {
            let applied = last_point(&series, "replication.applied_entries").unwrap_or(0);
            let seq = last_point(&series, "replication.applied").unwrap_or(0);
            let lag = tip.saturating_sub(seq);
            let contact = last_point(&series, "replication.last_contact_ms").unwrap_or(0);
            println!(
                "  replica: applied/interval: {applied:>6}    at seq {seq} \
                 (lag {lag} frames)    last primary contact {contact} ms ago"
            );
        } else {
            let lag = last_points(&series, "replication.followers.", ".lag").max().unwrap_or(0);
            println!("  primary: replication tip {tip}    max follower lag {lag} frames");
            println!("  {:<24} {:>12} {:>14}", "follower", "lag frames", "ack age ms");
            for f in followers {
                let at = |field: &str| {
                    last_point(&series, &format!("replication.followers.{f}.{field}")).unwrap_or(0)
                };
                println!("  {f:<24} {:>12} {:>14}", at("lag"), at("age_ms"));
            }
        }
    }

    let mut shards: Vec<u64> = labels(&series, "detector.shards.", ".signals")
        .iter()
        .filter_map(|l| l.parse().ok())
        .collect();
    shards.sort_unstable();
    if !shards.is_empty() {
        println!("  {:>6} {:>12} {:>12} {:>12}", "shard", "signals/int", "contention", "queue");
        for shard in shards {
            let at = |field: &str| {
                last_point(&series, &format!("detector.shards.{shard}.{field}")).unwrap_or(0)
            };
            let (sig, con, q) = (at("signals"), at("contention"), at("queue_depth"));
            println!("  {shard:>6} {sig:>12} {con:>12} {q:>12}");
        }
    }

    let mut rules: Vec<(String, u64)> = labels(&series, "scheduler.per_rule.", "")
        .into_iter()
        .map(|r| {
            let hits = last_point(&series, &format!("scheduler.per_rule.{r}")).unwrap_or(0);
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
