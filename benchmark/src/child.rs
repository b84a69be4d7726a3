//! The system under test as a separate process: this binary re-executed
//! with the `serve` subcommand, so generator and server never share a
//! heap or a scheduler slot, and SIGKILL is a real crash.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::durable_store::{DurableOptions, FsyncPolicy};
use sentinel_core::{Sentinel, SentinelConfig};
use sentinel_net::{NetServer, ServerConfig};

use crate::params;

/// A running `serve` child. Dropping it kills the child and waits.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn → the child's `ready` line.
    pub ready_after: Duration,
}

impl Server {
    /// Spawns a server (durable over `data_dir` when given; off the
    /// generator's CPU when `apart`, see `host::OnLastCpu`) and waits for its
    /// `ready <addr>` line.
    pub fn spawn(data_dir: Option<&Path>, apart: bool) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        if apart {
            cmd.arg("--apart");
        }
        let t0 = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn serve: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let ready_after = t0.elapsed();
        let mut server = Server { child, addr: String::new(), ready_after };
        match (read, line.trim().strip_prefix("ready ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!("serve child said {line:?} instead of `ready <addr>`")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's peak resident set so far, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.pid().to_string())
    }

    /// CPU seconds (user + system) the child has used so far.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line, in clock ticks (100 Hz).
        let rest = stat.rsplit_once(") ")?.1;
        let mut fields = rest.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of `/proc/<pid>/status` in MiB (`pid` may be `self`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `serve` subcommand: one Sentinel behind a `NetServer`, serving
/// until the parent closes our stdin (or kills us).
pub fn serve(data_dir: Option<PathBuf>, apart: bool) -> ! {
    if apart {
        crate::host::leave_last_cpu();
    }
    let sentinel: Arc<Sentinel> = match &data_dir {
        None => Sentinel::in_memory(),
        Some(dir) => {
            match Sentinel::open_durable(dir, SentinelConfig::default(), durable_options()) {
                Ok((s, _report)) => s,
                Err(e) => {
                    eprintln!("serve: recovery of {} failed: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
    };
    let server = match NetServer::start(sentinel.serve_handle(), server_config()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("ready {}", server.local_addr());
    // The parent holds the write end of our stdin and never writes: EOF
    // means it is gone (or done), so an orphaned server cannot outlive it.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    std::process::exit(0);
}

/// `ServerConfig` of every child: one event loop, one detector thread,
/// defaults otherwise.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        event_loops: params::EVENT_LOOPS,
        detector_threads: params::DETECTOR_THREADS,
        ..ServerConfig::default()
    }
}

/// `DurableOptions` of the durable child (and of the ladder's in-process
/// durable rungs, which override `fsync`).
pub fn durable_options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        group_window_us: params::GROUP_WINDOW_US,
        checkpoint_every: params::CHECKPOINT_EVERY,
        ..DurableOptions::default()
    }
}

/// Bytes of the journal in a durable data directory: stream segments,
/// fence log and catalog log. Left out are the files whose size depends on
/// the moment rather than on the signals: the two diagnostic dumps (flight
/// recorder, recovery report) and the checkpoints (`ckpt-*.ck`), which the
/// checkpointer thread cuts whenever it gets there — with or without a
/// `seq_a` waiting for its `seq_b`.
pub fn journal_bytes(dir: &Path) -> std::io::Result<u64> {
    let diagnostics = [
        sentinel_core::obs::flight::FLIGHT_RECORDER_FILE,
        sentinel_core::durable_store::RECOVERY_REPORT_FILE,
    ];
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let checkpoint = name.to_string_lossy().starts_with("ckpt-");
        if !checkpoint && !diagnostics.iter().any(|d| name == *d) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Copies the directory tree `from` to the new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}
