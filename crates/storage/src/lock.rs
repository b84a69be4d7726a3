//! Strict two-phase lock manager for top-level transactions.
//!
//! Shared/exclusive locks on abstract `u64` resources (the engine uses
//! packed [`crate::common::Rid`]s). Grants are FIFO-fair: a new request
//! queues behind existing waiters (so writers are not starved by reader
//! streams), and on every release the queue head(s) compatible with the
//! remaining holders are granted. Deadlocks are detected eagerly by cycle
//! search over the waits-for graph; the requester that closes a cycle is the
//! victim and receives [`StorageError::Deadlock`].
//!
//! This is the *Exodus-level* lock table. Rule subtransactions use the
//! separate nested-transaction lock manager in `sentinel-txn`, exactly as the
//! paper describes ("a nested transaction manager is implemented with its own
//! lock manager. This is in addition to the concurrency control and recovery
//! provided by the Exodus for top-level transactions").

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::common::{StorageError, StorageResult, TxnId};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    /// Mode compatibility matrix: S/S is the only compatible pair.
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

#[derive(Debug, Default)]
struct ResourceState {
    /// Current holders and their modes.
    holders: HashMap<TxnId, LockMode>,
    /// FIFO of waiting `(txn, mode)` requests.
    waiters: Vec<(TxnId, LockMode)>,
}

impl ResourceState {
    /// Whether `txn` currently holds a mode covering `mode`.
    fn covers(&self, txn: TxnId, mode: LockMode) -> bool {
        match self.holders.get(&txn) {
            Some(LockMode::Exclusive) => true,
            Some(LockMode::Shared) => mode == LockMode::Shared,
            None => false,
        }
    }
}

#[derive(Default)]
struct TableState {
    resources: HashMap<u64, ResourceState>,
    /// txn -> resources it holds (for release-all).
    held: HashMap<TxnId, HashSet<u64>>,
    /// txn -> resource it is currently waiting on.
    waiting_on: HashMap<TxnId, u64>,
}

impl TableState {
    /// Grants as many queued waiters on `resource` as compatibility allows:
    /// upgrades first (when the upgrader is the sole holder), then the FIFO
    /// prefix of compatible requests.
    fn grant_waiters(&mut self, resource: u64) {
        let Some(res) = self.resources.get_mut(&resource) else { return };
        // Upgrade requests take priority (holder of S waiting for X).
        if let Some(pos) = res
            .waiters
            .iter()
            .position(|(t, m)| *m == LockMode::Exclusive && res.holders.contains_key(t))
        {
            let (t, _) = res.waiters[pos];
            if res.holders.len() == 1 {
                res.waiters.remove(pos);
                res.holders.insert(t, LockMode::Exclusive);
                // `held` already contains the resource for an upgrader.
                return;
            }
            // An upgrade is pending but blocked: grant nothing else (granting
            // more readers would starve the upgrade forever).
            return;
        }
        // FIFO grant of the compatible prefix.
        let mut granted: Vec<TxnId> = Vec::new();
        while let Some(&(t, m)) = res.waiters.first() {
            let ok = res.holders.values().all(|h| h.compatible(m));
            if !ok {
                break;
            }
            res.waiters.remove(0);
            res.holders.insert(t, m);
            granted.push(t);
        }
        for t in granted {
            self.held.entry(t).or_default().insert(resource);
        }
    }
}

/// The lock manager.
pub struct LockManager {
    state: Mutex<TableState>,
    wakeup: Condvar,
    /// Upper bound on a single wait, to bound the damage of any undetected
    /// stall (deadlocks themselves are detected eagerly, not by timeout).
    timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// A lock manager with the default 5 s wait bound.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(5))
    }

    /// A lock manager with an explicit wait bound.
    pub fn with_timeout(timeout: Duration) -> Self {
        LockManager { state: Mutex::new(TableState::default()), wakeup: Condvar::new(), timeout }
    }

    /// Acquires `mode` on `resource` for `txn`, blocking if necessary.
    ///
    /// Re-entrant: a transaction already holding the resource in a mode that
    /// covers the request succeeds immediately; a shared holder requesting
    /// exclusive performs a lock upgrade (granted ahead of queued requests
    /// once it is the sole holder).
    pub fn lock(&self, txn: TxnId, resource: u64, mode: LockMode) -> StorageResult<()> {
        let mut st = self.state.lock();
        {
            let res = st.resources.entry(resource).or_default();
            if res.covers(txn, mode) {
                return Ok(());
            }
            let is_upgrade = res.holders.contains_key(&txn);
            let can_grant = if is_upgrade {
                res.holders.len() == 1
            } else {
                res.holders.values().all(|h| h.compatible(mode)) && res.waiters.is_empty()
            };
            if can_grant {
                res.holders.insert(txn, mode);
                st.held.entry(txn).or_default().insert(resource);
                return Ok(());
            }
        }

        // Must wait: first make sure the wait doesn't close a cycle.
        if self.would_deadlock(&st, txn, resource) {
            return Err(StorageError::Deadlock(txn));
        }
        st.resources.get_mut(&resource).expect("created above").waiters.push((txn, mode));
        st.waiting_on.insert(txn, resource);
        let deadline = Instant::now() + self.timeout;
        loop {
            let timed_out = self.wakeup.wait_until(&mut st, deadline).timed_out();
            let granted = st.resources.get(&resource).is_some_and(|r| r.covers(txn, mode));
            if granted {
                st.waiting_on.remove(&txn);
                return Ok(());
            }
            if timed_out {
                st.waiting_on.remove(&txn);
                if let Some(res) = st.resources.get_mut(&resource) {
                    res.waiters.retain(|(t, m)| !(*t == txn && *m == mode));
                }
                st.grant_waiters(resource);
                self.wakeup.notify_all();
                return Err(StorageError::LockTimeout(txn));
            }
        }
    }

    /// True if `txn` waiting on `resource` would close a waits-for cycle.
    fn would_deadlock(&self, st: &TableState, txn: TxnId, resource: u64) -> bool {
        // DFS over: waiter -> holders of the resource it waits on.
        let mut stack: Vec<TxnId> = st
            .resources
            .get(&resource)
            .map(|r| r.holders.keys().copied().filter(|t| *t != txn).collect())
            .unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == txn {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(&r) = st.waiting_on.get(&t) {
                if let Some(res) = st.resources.get(&r) {
                    stack.extend(res.holders.keys().copied());
                }
            }
        }
        false
    }

    /// Releases every lock `txn` holds (strict 2PL: called at commit/abort),
    /// granting queued waiters.
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        if let Some(resources) = st.held.remove(&txn) {
            for r in resources {
                if let Some(res) = st.resources.get_mut(&r) {
                    res.holders.remove(&txn);
                }
                st.grant_waiters(r);
                if let Some(res) = st.resources.get(&r) {
                    if res.holders.is_empty() && res.waiters.is_empty() {
                        st.resources.remove(&r);
                    }
                }
            }
        }
        // Also drop any queued requests from this txn (aborted while waiting).
        for res in st.resources.values_mut() {
            res.waiters.retain(|(t, _)| *t != txn);
        }
        st.waiting_on.remove(&txn);
        // Every blocked requester is in `waiting_on` until it wakes: with
        // none there, skip the wake-up (a syscall even with no waiter).
        if !st.waiting_on.is_empty() {
            self.wakeup.notify_all();
        }
    }

    /// Diagnostic: number of resources with at least one holder or waiter.
    pub fn active_resources(&self) -> usize {
        self.state.lock().resources.len()
    }

    /// Diagnostic: locks held by `txn`.
    pub fn held_by(&self, txn: TxnId) -> usize {
        self.state.lock().held.get(&txn).map_or(0, |s| s.len())
    }
}

/// Shared handle.
pub type SharedLockManager = Arc<LockManager>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), 10, LockMode::Shared).unwrap();
        lm.lock(TxnId(2), 10, LockMode::Shared).unwrap();
        assert_eq!(lm.held_by(TxnId(1)), 1);
        assert_eq!(lm.held_by(TxnId(2)), 1);
    }

    #[test]
    fn lock_is_reentrant() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), 10, LockMode::Exclusive).unwrap();
        lm.lock(TxnId(1), 10, LockMode::Exclusive).unwrap();
        lm.lock(TxnId(1), 10, LockMode::Shared).unwrap(); // covered by X
        assert_eq!(lm.held_by(TxnId(1)), 1);
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.lock(TxnId(1), 10, LockMode::Shared).unwrap();
        lm.lock(TxnId(1), 10, LockMode::Exclusive).unwrap();
        // Now exclusive: another reader must block until timeout.
        assert!(matches!(
            lm.lock(TxnId(2), 10, LockMode::Shared),
            Err(StorageError::LockTimeout(_))
        ));
    }

    #[test]
    fn pending_upgrade_wins_over_queued_readers() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), 10, LockMode::Shared).unwrap();
        lm.lock(TxnId(2), 10, LockMode::Shared).unwrap();
        // T1 wants to upgrade but T2 also holds shared -> it waits.
        let lm2 = lm.clone();
        let upgrader = thread::spawn(move || {
            let r = lm2.lock(TxnId(1), 10, LockMode::Exclusive);
            lm2.release_all(TxnId(1));
            r
        });
        thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(2));
        assert!(upgrader.join().unwrap().is_ok());
    }

    #[test]
    fn exclusive_blocks_then_wakes_on_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), 42, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(2), 42, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_by(TxnId(2)), 1);
    }

    #[test]
    fn release_wakes_a_blocked_waiter_promptly() {
        // Far below the 5 s timeout, so a lost wake-up fails instead of
        // passing slowly.
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), 42, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let waiter = thread::spawn(move || {
            lm2.lock(TxnId(2), 42, LockMode::Exclusive).unwrap();
            Instant::now()
        });
        while !lm.state.lock().waiting_on.contains_key(&TxnId(2)) {
            thread::yield_now(); // until the waiter is blocked
        }
        let released = Instant::now();
        lm.release_all(TxnId(1));
        let granted = waiter.join().unwrap();
        assert!(granted - released < Duration::from_millis(500));
    }

    #[test]
    fn deadlock_is_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), 1, LockMode::Exclusive).unwrap();
        lm.lock(TxnId(2), 2, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        // T1 waits for resource 2 (held by T2)...
        let h = thread::spawn(move || {
            let r = lm2.lock(TxnId(1), 2, LockMode::Exclusive);
            lm2.release_all(TxnId(1));
            r
        });
        thread::sleep(Duration::from_millis(50));
        // ... and T2 requesting resource 1 closes the cycle.
        let r2 = lm.lock(TxnId(2), 1, LockMode::Exclusive);
        let victim_here = matches!(r2, Err(StorageError::Deadlock(TxnId(2))));
        if victim_here {
            lm.release_all(TxnId(2)); // victim aborts, T1 proceeds
            assert!(h.join().unwrap().is_ok());
        } else {
            // The other side was the victim (scheduling-dependent).
            assert!(matches!(h.join().unwrap(), Err(StorageError::Deadlock(TxnId(1)))));
        }
    }

    #[test]
    fn release_all_clears_table() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), 1, LockMode::Exclusive).unwrap();
        lm.lock(TxnId(1), 2, LockMode::Shared).unwrap();
        lm.release_all(TxnId(1));
        assert_eq!(lm.active_resources(), 0);
        assert_eq!(lm.held_by(TxnId(1)), 0);
    }

    #[test]
    fn writer_not_starved_by_reader_stream() {
        // T2 waits for X; a later reader T3 queues behind it; after T1's
        // release the writer goes first, then the reader.
        let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(2)));
        lm.lock(TxnId(1), 7, LockMode::Shared).unwrap();
        let lm2 = lm.clone();
        let writer = thread::spawn(move || {
            let r = lm2.lock(TxnId(2), 7, LockMode::Exclusive);
            thread::sleep(Duration::from_millis(20));
            lm2.release_all(TxnId(2));
            r
        });
        thread::sleep(Duration::from_millis(30));
        let lm3 = lm.clone();
        let reader = thread::spawn(move || {
            let r = lm3.lock(TxnId(3), 7, LockMode::Shared);
            lm3.release_all(TxnId(3));
            r
        });
        thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        assert!(writer.join().unwrap().is_ok());
        assert!(reader.join().unwrap().is_ok());
    }

    #[test]
    fn many_threads_mixed_workload_terminates() {
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let lm = lm.clone();
            handles.push(thread::spawn(move || {
                let txn = TxnId(i + 1);
                // Lock resources in a fixed order to stay deadlock-free.
                for r in 0..4u64 {
                    let mode =
                        if (i + r) % 3 == 0 { LockMode::Exclusive } else { LockMode::Shared };
                    lm.lock(txn, r, mode).unwrap();
                }
                lm.release_all(txn);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.active_resources(), 0);
    }
}
