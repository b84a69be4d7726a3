//! Standalone Sentinel server: one shared active DBMS behind a TCP port.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin sentinel-server -- [FLAGS]
//!
//!   --addr <host:port>      bind address (default 127.0.0.1:7878; port 0
//!                           lets the OS pick — the chosen port is printed)
//!   --max-connections <N>   concurrent connection cap (default 64;
//!                           raise well past 10000 for C10K runs — the
//!                           reactor holds idle connections for free)
//!   --event-loops <N>       epoll event loops serving sockets
//!                           (default 2; at least one runs)
//!   --stall-ms <N>          evict a connection stuck mid-frame or with
//!                           unread replies after N ms (default 30000;
//!                           idle connections are never evicted)
//!   --max-write-queue <N>   per-connection write-queue byte cap before
//!                           a non-reading peer is evicted (default
//!                           4194304; one max-size frame always fits)
//!   --global-inflight <N>   global in-flight signal cap (default 1024)
//!   --session-inflight <N>  per-session queued-async cap (default 128)
//!   --detector-threads <N>  detector workers behind the async pump
//!                           (default 1; disjoint event-graph shards
//!                           detect concurrently across workers)
//!   --tracing               enable provenance tracing (lets clients
//!                           stitch server spans into their trace ids)
//!   --data-dir <DIR>        run durably: recover the catalog, event
//!                           journal, and event-graph state from DIR, and
//!                           journal everything from here on
//!   --fsync <POLICY>        journal fsync policy: `always` (default),
//!                           `every=N` (batch N appends per fsync), or
//!                           `never` (OS page cache only)
//!   --checkpoint-every <N>  checkpoint the event graph every N journal
//!                           records (default 1024; 0 disables automatic
//!                           checkpoints — shutdown still cuts one)
//!   --group-window-us <N>   group-commit accumulation window in µs: the
//!                           committer sleeps this long after the first
//!                           pending append so concurrent shards share
//!                           the fsync (default 0 — commit immediately)
//!   --group-bytes <N>       force a group commit once N payload bytes
//!                           are pending, regardless of the fsync policy
//!                           (default 0 — disabled)
//!   --no-telemetry          disable the 1 s time-series sampler (on by
//!                           default; scraped via the MetricsScrape
//!                           opcode or HTTP GET /metrics on the same
//!                           port)
//!   --replica-of <ADDR>     start as a read-only follower of the primary
//!                           at ADDR (requires --data-dir): bootstrap
//!                           from its snapshot, tail its replication
//!                           stream, serve reads, refuse writes until
//!                           promoted (Promote opcode or lease expiry)
//!   --lease-ms <N>          with --replica-of: self-promote after the
//!                           primary has been unreachable N ms (default
//!                           3000; 0 disables auto-promotion)
//!   --follower-name <NAME>  follower name shown in the primary's
//!                           replication stats (default "replica")
//! ```
//!
//! The process serves until a client sends a `Shutdown` frame (e.g.
//! `sentinel-loadgen --shutdown`), then drains the detector pool and
//! exits — with `--data-dir`, shutdown also flushes the journal and cuts
//! a final checkpoint. The line `listening on <addr>` on stdout marks
//! readiness; a durable start first prints one `recovered ...` line
//! summarizing what came back from disk (the same numbers land in
//! `recovery-report.json` inside the data directory).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sentinel_cluster::{Follower, FollowerConfig};
use sentinel_core::durable_store::{DurableOptions, FsyncPolicy};
use sentinel_core::{Sentinel, SentinelConfig};
use sentinel_net::{NetServer, ServerConfig};

struct Args {
    cfg: ServerConfig,
    tracing: bool,
    telemetry: bool,
    data_dir: Option<PathBuf>,
    durable: DurableOptions,
    replica_of: Option<String>,
    lease_ms: u64,
    follower_name: String,
}

fn parse_fsync(spec: &str) -> FsyncPolicy {
    match spec {
        "always" => FsyncPolicy::Always,
        "never" => FsyncPolicy::Never,
        other => match other.strip_prefix("every=").and_then(|n| n.parse().ok()) {
            Some(n) => FsyncPolicy::EveryN(n),
            None => {
                eprintln!("--fsync wants `always`, `never`, or `every=N`");
                std::process::exit(2);
            }
        },
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: ServerConfig::default(),
        tracing: false,
        telemetry: true,
        data_dir: None,
        durable: DurableOptions::default(),
        replica_of: None,
        lease_ms: 3000,
        follower_name: "replica".to_string(),
    };
    args.cfg.addr = "127.0.0.1:7878".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => args.cfg.addr = value("--addr"),
            "--max-connections" => {
                args.cfg.max_connections =
                    value("--max-connections").parse().expect("--max-connections <N>");
            }
            "--event-loops" => {
                args.cfg.event_loops = value("--event-loops").parse().expect("--event-loops <N>");
            }
            "--stall-ms" => {
                args.cfg.stall_timeout =
                    Duration::from_millis(value("--stall-ms").parse().expect("--stall-ms <N>"));
            }
            "--max-write-queue" => {
                args.cfg.max_write_queue =
                    value("--max-write-queue").parse().expect("--max-write-queue <N>");
            }
            "--global-inflight" => {
                args.cfg.max_inflight_global =
                    value("--global-inflight").parse().expect("--global-inflight <N>");
            }
            "--session-inflight" => {
                args.cfg.max_inflight_per_session =
                    value("--session-inflight").parse().expect("--session-inflight <N>");
            }
            "--detector-threads" => {
                args.cfg.detector_threads =
                    value("--detector-threads").parse().expect("--detector-threads <N>");
            }
            "--tracing" => args.tracing = true,
            "--no-telemetry" => args.telemetry = false,
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync" => args.durable.fsync = parse_fsync(&value("--fsync")),
            "--checkpoint-every" => {
                args.durable.checkpoint_every =
                    value("--checkpoint-every").parse().expect("--checkpoint-every <N>");
            }
            "--group-window-us" => {
                args.durable.group_window_us =
                    value("--group-window-us").parse().expect("--group-window-us <N>");
            }
            "--group-bytes" => {
                args.durable.group_bytes =
                    value("--group-bytes").parse().expect("--group-bytes <N>");
            }
            "--replica-of" => args.replica_of = Some(value("--replica-of")),
            "--lease-ms" => {
                args.lease_ms = value("--lease-ms").parse().expect("--lease-ms <N>");
            }
            "--follower-name" => args.follower_name = value("--follower-name"),
            "--help" | "-h" => {
                println!(
                    "sentinel-server [--addr HOST:PORT] [--max-connections N] \
                     [--event-loops N] [--stall-ms N] \
                     [--max-write-queue N] \
                     [--global-inflight N] [--session-inflight N] \
                     [--detector-threads N] [--tracing] [--data-dir DIR] \
                     [--fsync always|never|every=N] [--checkpoint-every N] \
                     [--group-window-us N] [--group-bytes N] [--no-telemetry] \
                     [--replica-of ADDR] [--lease-ms N] [--follower-name NAME]"
                );
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

fn open_sentinel(args: &Args) -> Arc<Sentinel> {
    let Some(dir) = &args.data_dir else {
        if args.replica_of.is_some() {
            eprintln!("--replica-of requires --data-dir");
            std::process::exit(2);
        }
        return Sentinel::in_memory();
    };
    // On panic, dump the flight-recorder ring next to the journal so the
    // post-mortem has the process's final seconds.
    sentinel_core::obs::flight::install_panic_hook(
        dir.join(sentinel_core::obs::flight::FLIGHT_RECORDER_FILE),
    );
    let opened = if args.replica_of.is_some() {
        Sentinel::open_replica(dir, SentinelConfig::default(), args.durable)
    } else {
        Sentinel::open_durable(dir, SentinelConfig::default(), args.durable)
    };
    match opened {
        Ok((sentinel, report)) => {
            let p = &report.phases;
            println!(
                "recovered {} catalog ops, checkpoint {}, {} replayed of {} journal records \
                 ({} bytes truncated) [phases us: fence_repair={} stream_merge={} \
                 snapshot_restore={} catalog_interleave={} replay={} total={}]",
                report.catalog_ops,
                report.checkpoint_tag.map_or_else(|| "none".to_string(), |t| t.to_string()),
                report.replayed_records,
                report.journal_records,
                report.truncated_bytes,
                p.fence_repair_us,
                p.stream_merge_us,
                p.snapshot_restore_us,
                p.catalog_interleave_us,
                p.replay_us,
                p.total_us,
            );
            sentinel
        }
        Err(e) => {
            eprintln!("recovery failed for {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    let sentinel = open_sentinel(&args);
    sentinel.set_tracing(args.tracing);
    if args.telemetry {
        sentinel.start_telemetry_default();
    }
    let server = match NetServer::start(sentinel.serve_handle(), args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    // Keep the follower handle alive for the server's lifetime; dropping
    // it stops the apply loop.
    let _follower = args.replica_of.as_ref().map(|primary| {
        let dir = args.data_dir.clone().expect("checked in open_sentinel");
        let mut cfg = FollowerConfig::new(primary, &args.follower_name, dir);
        cfg.lease = match args.lease_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        println!("following {primary} as {}", args.follower_name);
        Follower::start(sentinel.clone(), cfg)
    });
    server.wait_for_shutdown();
    println!("server stopped: {}", server.metrics().to_json());
}
