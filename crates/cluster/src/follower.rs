//! The follower apply loop: bootstrap, tail, ack, checkpoint, and (on
//! primary loss) promote.
//!
//! The loop is pull-based: the follower asks for `ReplFrames{from}` at
//! its own pace, applies each entry via
//! [`Sentinel::apply_repl_entry`] (journal first for events/fences,
//! graph first for catalog ops — see `sentinel-core`'s `replica`
//! module), acks its watermark, and cuts a local checkpoint every
//! [`FollowerConfig::checkpoint_every`] applied entries — always at an
//! entry boundary, where local journal and graph agree.
//!
//! **Resume.** Bootstrap state (`replica-state.json` in the data dir)
//! records the primary's log sequence the snapshot covered (`base_seq`)
//! and how many local log entries the bootstrap itself produced
//! (`bootstrap_entries`, the shipped DDL prefix). After a follower
//! restart, local recovery re-seeds the local replication log
//! deterministically, so the resume watermark is
//! `base_seq + (local_tip - bootstrap_entries)` — no re-bootstrap, no
//! re-fetch of entries already applied.
//!
//! **Lease.** Every successful primary round-trip renews the lease.
//! Once `lease` elapses without contact (and at least one contact ever
//! succeeded, so a follower pointed at a dead address does not instantly
//! crown itself), the loop calls [`Sentinel::promote`] and exits.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sentinel_core::Sentinel;
use sentinel_detector::GraphSnapshot;
use sentinel_durable::{CatalogOp, ReplEntry};
use sentinel_net::{ClientError, SentinelClient};
use sentinel_obs::flight::FlightKind;
use sentinel_obs::repl::ReplicationStats;
use sentinel_obs::{flight, json};

/// Name of the bootstrap-state file in the replica's data directory.
pub const REPLICA_STATE_FILE: &str = "replica-state.json";

/// Tuning for a [`Follower`].
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The primary's wire address (`host:port`).
    pub primary: String,
    /// This follower's name (shown in the primary's follower stats).
    pub name: String,
    /// Data directory (for `replica-state.json`; the Sentinel itself was
    /// opened over the same directory).
    pub data_dir: PathBuf,
    /// Promote after the primary has been unreachable this long;
    /// `None` disables auto-promotion (explicit `Promote` only).
    pub lease: Option<Duration>,
    /// Sleep between polls when fully caught up.
    pub poll: Duration,
    /// Maximum entries per `ReplFrames` request.
    pub batch: u64,
    /// Cut a local checkpoint every N applied entries (0 = never).
    pub checkpoint_every: u64,
}

impl FollowerConfig {
    /// Defaults for following `primary` with follower name `name`.
    pub fn new(primary: &str, name: &str, data_dir: impl Into<PathBuf>) -> FollowerConfig {
        FollowerConfig {
            primary: primary.to_string(),
            name: name.to_string(),
            data_dir: data_dir.into(),
            lease: Some(Duration::from_secs(3)),
            poll: Duration::from_millis(20),
            batch: 512,
            checkpoint_every: 256,
        }
    }
}

/// Bootstrap state persisted to [`REPLICA_STATE_FILE`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReplicaState {
    primary: String,
    base_seq: u64,
    bootstrap_entries: u64,
}

impl ReplicaState {
    fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("primary", json::Value::str(&self.primary)),
            ("base_seq", json::Value::UInt(self.base_seq)),
            ("bootstrap_entries", json::Value::UInt(self.bootstrap_entries)),
        ])
    }

    fn from_json(v: &json::Value) -> Option<ReplicaState> {
        Some(ReplicaState {
            primary: v.get("primary")?.as_str()?.to_string(),
            base_seq: v.get("base_seq")?.as_u64()?,
            bootstrap_entries: v.get("bootstrap_entries")?.as_u64()?,
        })
    }
}

/// A running follower apply loop. Dropping it stops the loop (without
/// promoting).
pub struct Follower {
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
    sentinel: Arc<Sentinel>,
}

impl Follower {
    /// Starts tailing `cfg.primary` into `sentinel` (which must have
    /// been opened with [`Sentinel::open_replica`] over `cfg.data_dir`).
    pub fn start(sentinel: Arc<Sentinel>, cfg: FollowerConfig) -> Follower {
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = stop.clone();
        let loop_sentinel = sentinel.clone();
        let thread = std::thread::Builder::new()
            .name(format!("sentinel-follower-{}", cfg.name))
            .spawn(move || follower_loop(loop_sentinel, cfg, loop_stop))
            .expect("spawn follower thread");
        Follower { stop, thread: Mutex::new(Some(thread)), sentinel }
    }

    /// The replicated system.
    pub fn sentinel(&self) -> &Arc<Sentinel> {
        &self.sentinel
    }

    /// Stops the apply loop (no promotion) and joins its thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }

    /// Blocks until the loop exits on its own — on promotion (lease
    /// expiry or an external `Promote`) or after [`Follower::stop`].
    pub fn join(&self) {
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One follower lifetime: connect (with retries under the lease),
/// bootstrap or resume, then tail until stopped or promoted.
fn follower_loop(sentinel: Arc<Sentinel>, cfg: FollowerConfig, stop: Arc<AtomicBool>) {
    let state_path = cfg.data_dir.join(REPLICA_STATE_FILE);
    let mut state: Option<ReplicaState> = std::fs::read_to_string(&state_path)
        .ok()
        .and_then(|s| json::Value::parse(&s).ok())
        .and_then(|v| ReplicaState::from_json(&v));
    // `None` until the first successful round-trip: a follower that never
    // reached its primary has nothing to promote itself over.
    let mut last_contact: Option<Instant> = None;
    let mut applied: Option<u64> = None;
    let mut applied_entries: u64 = 0;
    let mut since_checkpoint: u64 = 0;

    'outer: while !stop.load(Ordering::SeqCst) && sentinel.is_replica() {
        let client = match SentinelClient::connect(&cfg.primary, &cfg.name) {
            Ok(c) => c,
            Err(_) => {
                if lease_expired(&cfg, last_contact) {
                    promote_on_lease(&sentinel, &cfg);
                    break;
                }
                std::thread::sleep(cfg.poll);
                continue;
            }
        };
        let tip = match client.repl_subscribe(&cfg.name) {
            Ok(reply) => reply.get("tip").and_then(json::Value::as_u64).unwrap_or(0),
            Err(e) => {
                if fatal(&e) {
                    break;
                }
                if lease_expired(&cfg, last_contact) {
                    promote_on_lease(&sentinel, &cfg);
                    break;
                }
                std::thread::sleep(cfg.poll);
                continue;
            }
        };
        last_contact = Some(Instant::now());

        // First contact ever: bootstrap from a snapshot. Afterwards the
        // watermark derives from the persisted state plus whatever the
        // local journal recovered.
        if state.is_none() {
            match bootstrap(&sentinel, &client) {
                Ok(mut s) => {
                    s.primary = cfg.primary.clone();
                    let _ = std::fs::write(&state_path, s.to_json().to_string());
                    applied = Some(s.base_seq);
                    state = Some(s);
                }
                Err(msg) => {
                    // A failed bootstrap is not survivable from this
                    // loop: the graph may hold half the snapshot.
                    flight::global().record(FlightKind::CatchUp, Arc::from(msg.as_str()), 0, 0);
                    break;
                }
            }
        }
        let st = state.as_ref().expect("bootstrapped");
        let applied = applied.get_or_insert_with(|| {
            let local_tip = sentinel
                .durable_engine()
                .map(|e| e.replication().tip())
                .unwrap_or(st.bootstrap_entries);
            st.base_seq + local_tip.saturating_sub(st.bootstrap_entries)
        });
        let mut tip = tip.max(*applied);

        // Tail until transport failure or stop/promotion.
        while !stop.load(Ordering::SeqCst) && sentinel.is_replica() {
            let frames = match client.repl_frames(*applied, cfg.batch) {
                Ok(f) => f,
                Err(e) => {
                    if fatal(&e) {
                        break 'outer;
                    }
                    if lease_expired(&cfg, last_contact) {
                        promote_on_lease(&sentinel, &cfg);
                        break 'outer;
                    }
                    break; // reconnect
                }
            };
            last_contact = Some(Instant::now());
            tip = frames.get("tip").and_then(json::Value::as_u64).unwrap_or(tip);
            let entries = match frames.get("entries").and_then(json::Value::as_arr) {
                Some(a) => a,
                None => break,
            };
            let n = entries.len() as u64;
            for e in entries {
                let Some(entry) = ReplEntry::from_json(e) else {
                    flight::global().record_static(FlightKind::CatchUp, "bad-entry", *applied, 0);
                    break 'outer;
                };
                if sentinel.apply_repl_entry(&entry).is_err() {
                    flight::global().record_static(FlightKind::CatchUp, "apply-error", *applied, 0);
                    break 'outer;
                }
                *applied += 1;
                applied_entries += 1;
                since_checkpoint += 1;
                if cfg.checkpoint_every > 0 && since_checkpoint >= cfg.checkpoint_every {
                    let _ = sentinel.checkpoint_now();
                    since_checkpoint = 0;
                }
            }
            let _ = client.repl_ack(&cfg.name, *applied);
            publish_status(&sentinel, &cfg, tip, *applied, applied_entries, last_contact);
            if n == 0 {
                std::thread::sleep(cfg.poll);
            }
        }
    }
}

/// Fetches the snapshot package and feeds it to
/// [`Sentinel::bootstrap_replica`].
fn bootstrap(sentinel: &Arc<Sentinel>, client: &SentinelClient) -> Result<ReplicaState, String> {
    let pkg = client.repl_snapshot().map_err(|e| format!("snapshot fetch: {e}"))?;
    let seq = pkg.get("seq").and_then(json::Value::as_u64).ok_or("snapshot missing seq")?;
    let catalog: Vec<CatalogOp> = pkg
        .get("catalog")
        .and_then(json::Value::as_arr)
        .ok_or("snapshot missing catalog")?
        .iter()
        .map(|v| CatalogOp::from_json(v).map(|(_, op)| op))
        .collect::<Option<_>>()
        .ok_or("undecodable catalog op")?;
    let raw = sentinel_durable::repl::bytes_from_hex(
        pkg.get("snapshot").and_then(json::Value::as_str).ok_or("snapshot missing bytes")?,
    )
    .ok_or("snapshot not hex")?;
    let snap = GraphSnapshot::decode(raw.into()).ok_or("undecodable snapshot")?;
    let bootstrap_entries = catalog.len() as u64;
    sentinel.bootstrap_replica(&catalog, &snap).map_err(|e| format!("bootstrap: {e}"))?;
    Ok(ReplicaState {
        primary: String::new(), // filled by the caller's config
        base_seq: seq,
        bootstrap_entries,
    })
}

fn lease_expired(cfg: &FollowerConfig, last_contact: Option<Instant>) -> bool {
    match (cfg.lease, last_contact) {
        (Some(lease), Some(at)) => at.elapsed() > lease,
        _ => false,
    }
}

fn promote_on_lease(sentinel: &Arc<Sentinel>, cfg: &FollowerConfig) {
    flight::global().record(
        FlightKind::Promote,
        Arc::from(format!("lease-expired:{}", cfg.primary).as_str()),
        cfg.lease.map(|l| l.as_millis() as u64).unwrap_or(0),
        0,
    );
    sentinel.promote();
}

fn publish_status(
    sentinel: &Arc<Sentinel>,
    cfg: &FollowerConfig,
    tip: u64,
    applied: u64,
    applied_entries: u64,
    last_contact: Option<Instant>,
) {
    sentinel.set_repl_status(Some(ReplicationStats {
        role: "replica".into(),
        tip,
        followers: Vec::new(),
        applied,
        applied_entries,
        primary: Some(cfg.primary.clone()),
        last_contact_ms: last_contact.map(|at| at.elapsed().as_millis() as u64),
    }));
}

/// Server-rejected requests that no retry will fix (the primary answered
/// — it is alive — but refuses replication, e.g. it is not durable).
fn fatal(e: &ClientError) -> bool {
    matches!(e, ClientError::Server { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_state_roundtrip() {
        let s =
            ReplicaState { primary: "127.0.0.1:9999".into(), base_seq: 42, bootstrap_entries: 7 };
        let parsed = json::Value::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(ReplicaState::from_json(&parsed), Some(s));
    }

    #[test]
    fn lease_only_expires_after_first_contact() {
        let cfg = FollowerConfig::new("127.0.0.1:1", "f", "/tmp/x");
        assert!(!lease_expired(&cfg, None), "no contact yet: never self-promote");
        let past = Instant::now() - Duration::from_secs(60);
        assert!(lease_expired(&cfg, Some(past)));
        assert!(!lease_expired(&cfg, Some(Instant::now())));
    }
}
