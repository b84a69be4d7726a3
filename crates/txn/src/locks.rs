//! The nested lock manager ("a nested transaction manager is implemented
//! with its own lock manager", §2.3/Figure 1 "Lock table + Nested
//! transactions using threads").
//!
//! Moss's rules: a subtransaction may acquire
//!
//! * a **shared** lock iff every *exclusive* holder is one of its ancestors
//!   (or itself);
//! * an **exclusive** lock iff every holder of any mode is one of its
//!   ancestors (or itself).
//!
//! On subtransaction commit the parent *inherits* the locks
//! ([`NestedLockManager::inherit`]); on abort they are released.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::nested::{NestedError, SubTxnId};

/// Lock modes for rule subtransactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (condition evaluation reads).
    Shared,
    /// Exclusive (action writes).
    Exclusive,
}

#[derive(Debug, Default)]
struct Res {
    holders: HashMap<SubTxnId, LockMode>,
}

#[derive(Default)]
struct State {
    resources: HashMap<u64, Res>,
    held: HashMap<SubTxnId, HashSet<u64>>,
    /// Requesters blocked in [`NestedLockManager::lock`]: with none, a
    /// release wakes nobody (a `notify_all` is a syscall even then).
    waiters: usize,
}

/// Nested lock manager shared by all rule threads of an application.
pub struct NestedLockManager {
    state: Mutex<State>,
    /// Subtransactions holding at least one lock (`state.held.len()`,
    /// stored under the mutex). While it reads 0, inheriting or releasing
    /// has nothing to move and returns without taking the mutex.
    holders: AtomicUsize,
    wakeup: Condvar,
    timeout: Duration,
}

impl Default for NestedLockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl NestedLockManager {
    /// Default 2 s wait bound (rule subtransaction deadlocks resolve by
    /// victimizing the timed-out requester).
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(2))
    }

    /// Explicit wait bound.
    pub fn with_timeout(timeout: Duration) -> Self {
        NestedLockManager {
            state: Mutex::new(State::default()),
            holders: AtomicUsize::new(0),
            wakeup: Condvar::new(),
            timeout,
        }
    }

    fn grantable(
        res: &Res,
        holder: SubTxnId,
        ancestors: &HashSet<SubTxnId>,
        mode: LockMode,
    ) -> bool {
        res.holders.iter().all(|(h, m)| {
            if *h == holder || ancestors.contains(h) {
                return true;
            }
            match mode {
                LockMode::Shared => *m == LockMode::Shared,
                LockMode::Exclusive => false,
            }
        })
    }

    /// Acquires `mode` on `resource` for `holder`, whose ancestor set
    /// (including itself) is `ancestors`. Blocks up to the timeout.
    pub fn lock(
        &self,
        holder: SubTxnId,
        ancestors: &HashSet<SubTxnId>,
        resource: u64,
        mode: LockMode,
    ) -> Result<(), NestedError> {
        let mut st = self.state.lock();
        let deadline = Instant::now() + self.timeout;
        loop {
            let res = st.resources.entry(resource).or_default();
            if Self::grantable(res, holder, ancestors, mode) {
                // Upgrade-or-insert, keeping the stronger mode.
                let entry = res.holders.entry(holder).or_insert(mode);
                if mode == LockMode::Exclusive {
                    *entry = LockMode::Exclusive;
                }
                st.held.entry(holder).or_default().insert(resource);
                self.holders.store(st.held.len(), Ordering::Release);
                return Ok(());
            }
            st.waiters += 1;
            let timed_out = self.wakeup.wait_until(&mut st, deadline).timed_out();
            st.waiters -= 1;
            if timed_out {
                return Err(NestedError::LockTimeout(holder));
            }
        }
    }

    /// Transfers all of `child`'s locks to `parent` (commit inheritance).
    pub fn inherit(&self, child: SubTxnId, parent: SubTxnId) {
        // Nobody holds a lock, so nobody waits for one either.
        if self.holders.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut st = self.state.lock();
        if let Some(resources) = st.held.remove(&child) {
            for r in &resources {
                if let Some(res) = st.resources.get_mut(r) {
                    if let Some(mode) = res.holders.remove(&child) {
                        let entry = res.holders.entry(parent).or_insert(mode);
                        if mode == LockMode::Exclusive {
                            *entry = LockMode::Exclusive;
                        }
                    }
                }
            }
            st.held.entry(parent).or_default().extend(resources);
            self.holders.store(st.held.len(), Ordering::Release);
        }
        if st.waiters > 0 {
            self.wakeup.notify_all();
        }
    }

    /// Releases everything `holder` has (abort, or commit of a root).
    pub fn release_all(&self, holder: SubTxnId) {
        if self.holders.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut st = self.state.lock();
        if let Some(resources) = st.held.remove(&holder) {
            self.holders.store(st.held.len(), Ordering::Release);
            for r in resources {
                if let Some(res) = st.resources.get_mut(&r) {
                    res.holders.remove(&holder);
                    if res.holders.is_empty() {
                        st.resources.remove(&r);
                    }
                }
            }
        }
        if st.waiters > 0 {
            self.wakeup.notify_all();
        }
    }

    /// Number of resources currently locked (diagnostics).
    pub fn active_resources(&self) -> usize {
        self.state.lock().resources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn anc(ids: &[u64]) -> HashSet<SubTxnId> {
        ids.iter().map(|&i| SubTxnId(i)).collect()
    }

    #[test]
    fn sibling_exclusive_conflicts() {
        let lm = NestedLockManager::with_timeout(Duration::from_millis(40));
        // Tree: root 1, children 2 and 3.
        lm.lock(SubTxnId(2), &anc(&[2, 1]), 9, LockMode::Exclusive).unwrap();
        let err = lm.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Exclusive);
        assert_eq!(err, Err(NestedError::LockTimeout(SubTxnId(3))));
    }

    #[test]
    fn child_may_take_parents_lock() {
        let lm = NestedLockManager::new();
        lm.lock(SubTxnId(1), &anc(&[1]), 9, LockMode::Exclusive).unwrap();
        // Child 2 of 1: parent's lock doesn't conflict.
        lm.lock(SubTxnId(2), &anc(&[2, 1]), 9, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn shared_locks_coexist_between_siblings() {
        let lm = NestedLockManager::new();
        lm.lock(SubTxnId(2), &anc(&[2, 1]), 9, LockMode::Shared).unwrap();
        lm.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Shared).unwrap();
        assert_eq!(lm.active_resources(), 1);
    }

    #[test]
    fn inheritance_moves_locks_to_parent() {
        let lm = NestedLockManager::with_timeout(Duration::from_millis(40));
        lm.lock(SubTxnId(2), &anc(&[2, 1]), 9, LockMode::Exclusive).unwrap();
        lm.inherit(SubTxnId(2), SubTxnId(1));
        // A stranger still conflicts (holder is now 1).
        assert!(lm.lock(SubTxnId(5), &anc(&[5, 4]), 9, LockMode::Shared).is_err());
        // A child of 1 does not.
        lm.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Shared).unwrap();
    }

    #[test]
    fn release_wakes_waiters() {
        let lm = Arc::new(NestedLockManager::new());
        lm.lock(SubTxnId(2), &anc(&[2, 1]), 9, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            lm2.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Exclusive)
        });
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(SubTxnId(2));
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn inherit_and_release_wake_a_blocked_waiter_promptly() {
        // Far below the 2 s timeout, so a lost wake-up fails instead of
        // passing slowly.
        for inherit in [true, false] {
            let lm = Arc::new(NestedLockManager::new());
            lm.lock(SubTxnId(2), &anc(&[2, 1]), 9, LockMode::Exclusive).unwrap();
            let lm2 = lm.clone();
            let waiter = std::thread::spawn(move || {
                lm2.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Exclusive).unwrap();
                Instant::now()
            });
            while lm.state.lock().waiters == 0 {
                std::thread::yield_now(); // until the waiter is blocked
            }
            let released = Instant::now();
            if inherit {
                // Commit of 2: its parent 1, an ancestor of 3, holds it now.
                lm.inherit(SubTxnId(2), SubTxnId(1));
            } else {
                lm.release_all(SubTxnId(2));
            }
            let granted = waiter.join().unwrap();
            assert!(granted - released < Duration::from_millis(500), "inherit = {inherit}");
        }
    }

    #[test]
    fn a_lockless_commit_beside_a_lock_holder_keeps_the_holders_locks() {
        // Tree: root 1, children 2 (no lock) and 3 (a lock).
        let lm = NestedLockManager::with_timeout(Duration::from_millis(40));
        lm.inherit(SubTxnId(2), SubTxnId(1)); // nothing held: the early return
        lm.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Exclusive).unwrap();
        lm.inherit(SubTxnId(2), SubTxnId(1)); // 2 commits, holding nothing
        lm.release_all(SubTxnId(2));
        assert_eq!(lm.active_resources(), 1, "3 still holds its lock");
        assert!(lm.lock(SubTxnId(4), &anc(&[4, 1]), 9, LockMode::Shared).is_err(), "held by 3");
        lm.inherit(SubTxnId(3), SubTxnId(1)); // 3 commits: 1 inherits
        lm.lock(SubTxnId(4), &anc(&[4, 1]), 9, LockMode::Shared).unwrap();
        lm.release_all(SubTxnId(4));
        lm.release_all(SubTxnId(1)); // the root commits
        assert_eq!(lm.active_resources(), 0);
        assert_eq!(lm.holders.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn upgrade_keeps_stronger_mode() {
        let lm = NestedLockManager::with_timeout(Duration::from_millis(40));
        let a = anc(&[2, 1]);
        lm.lock(SubTxnId(2), &a, 9, LockMode::Shared).unwrap();
        lm.lock(SubTxnId(2), &a, 9, LockMode::Exclusive).unwrap();
        // Sibling shared must now conflict.
        assert!(lm.lock(SubTxnId(3), &anc(&[3, 1]), 9, LockMode::Shared).is_err());
    }
}
