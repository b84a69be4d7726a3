//! Moss-style nested transaction trees.
//!
//! Every top-level (Exodus) transaction can anchor a tree of
//! subtransactions; Sentinel packages each triggered rule's
//! condition+action into one subtransaction (Figure 3), and nested rule
//! triggering nests subtransactions to arbitrary depth (§2.2 "rules can be
//! nested to arbitrary levels").
//!
//! State rules:
//! * a subtransaction may only be begun under an *active* parent;
//! * commit of a subtransaction makes its effects (and locks) the parent's;
//! * abort of a subtransaction aborts its still-active descendants first;
//! * aborting/committing a node with an active child directly is an error
//!   for commit (children must resolve first) and a cascade for abort.
//!
//! A resolved node stays in the table until its tree is forgotten
//! ([`NestedTxnManager::forget_tree`]) unless it is finished with
//! [`NestedTxnManager::finish_sub`], which resolves and removes it at
//! once. The rule scheduler finishes every rule subtransaction that way,
//! so a tree holds only its root and the subtransactions still running.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::locks::NestedLockManager;

/// Identifier of a node in a nested transaction tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubTxnId(pub u64);

impl fmt::Display for SubTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Lifecycle state of a subtransaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubTxnState {
    /// Running.
    Active,
    /// Committed into its parent.
    Committed,
    /// Rolled back.
    Aborted,
}

/// Errors from nested transaction operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NestedError {
    /// Operation on an unknown id.
    Unknown(SubTxnId),
    /// Parent is not active.
    ParentNotActive(SubTxnId),
    /// Commit/abort of a non-active subtransaction.
    NotActive(SubTxnId),
    /// Commit while a child is still active.
    ActiveChild(SubTxnId),
    /// Lock wait timed out (possible deadlock among rule subtransactions).
    LockTimeout(SubTxnId),
}

impl fmt::Display for NestedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NestedError::Unknown(s) => write!(f, "unknown subtransaction {s}"),
            NestedError::ParentNotActive(s) => write!(f, "parent {s} not active"),
            NestedError::NotActive(s) => write!(f, "subtransaction {s} not active"),
            NestedError::ActiveChild(s) => write!(f, "subtransaction {s} has an active child"),
            NestedError::LockTimeout(s) => write!(f, "lock wait timeout in {s}"),
        }
    }
}

impl std::error::Error for NestedError {}

/// Hashes a [`SubTxnId`] with one multiply. Ids are drawn from a counter,
/// so they only need spreading over the table, not SipHash's resistance
/// to chosen keys.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type NodeMap = HashMap<SubTxnId, SubInfo, BuildHasherDefault<IdHasher>>;

#[derive(Debug)]
struct SubInfo {
    parent: Option<SubTxnId>,
    /// The top-level (storage) transaction this tree belongs to.
    top: u64,
    state: SubTxnState,
    children: Vec<SubTxnId>,
    depth: u32,
}

/// The nested transaction manager (one per application, shared by all rule
/// threads).
pub struct NestedTxnManager {
    next: AtomicU64,
    nodes: Mutex<NodeMap>,
    locks: Arc<NestedLockManager>,
}

impl Default for NestedTxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl NestedTxnManager {
    /// A manager with a default-configured nested lock manager.
    pub fn new() -> Self {
        NestedTxnManager {
            next: AtomicU64::new(1),
            nodes: Mutex::new(NodeMap::default()),
            locks: Arc::new(NestedLockManager::new()),
        }
    }

    /// The nested lock manager.
    pub fn locks(&self) -> &Arc<NestedLockManager> {
        &self.locks
    }

    /// Starts the root subtransaction for top-level transaction `top`.
    pub fn begin_top(&self, top: u64) -> SubTxnId {
        let id = SubTxnId(self.next.fetch_add(1, Ordering::Relaxed));
        self.nodes.lock().insert(
            id,
            SubInfo {
                parent: None,
                top,
                state: SubTxnState::Active,
                children: Vec::new(),
                depth: 0,
            },
        );
        id
    }

    /// Begins a subtransaction under `parent`.
    pub fn begin_sub(&self, parent: SubTxnId) -> Result<SubTxnId, NestedError> {
        let mut nodes = self.nodes.lock();
        let p = nodes.get_mut(&parent).ok_or(NestedError::Unknown(parent))?;
        if p.state != SubTxnState::Active {
            return Err(NestedError::ParentNotActive(parent));
        }
        let id = SubTxnId(self.next.fetch_add(1, Ordering::Relaxed));
        p.children.push(id);
        let (top, depth) = (p.top, p.depth + 1);
        let state = SubTxnState::Active;
        nodes.insert(id, SubInfo { parent: Some(parent), top, state, children: Vec::new(), depth });
        Ok(id)
    }

    /// State of a subtransaction.
    pub fn state(&self, id: SubTxnId) -> Option<SubTxnState> {
        self.nodes.lock().get(&id).map(|n| n.state)
    }

    /// Parent of a subtransaction (None for roots).
    pub fn parent(&self, id: SubTxnId) -> Option<SubTxnId> {
        self.nodes.lock().get(&id).and_then(|n| n.parent)
    }

    /// Nesting depth (0 for roots) — the paper derives nested-rule thread
    /// priorities from this level.
    pub fn depth(&self, id: SubTxnId) -> Option<u32> {
        self.nodes.lock().get(&id).map(|n| n.depth)
    }

    /// Top-level (storage) transaction of this tree.
    pub fn top_of(&self, id: SubTxnId) -> Option<u64> {
        self.nodes.lock().get(&id).map(|n| n.top)
    }

    /// `id` and all its ancestors, nearest first.
    pub fn ancestry(&self, id: SubTxnId) -> Vec<SubTxnId> {
        let nodes = self.nodes.lock();
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            out.push(c);
            cur = nodes.get(&c).and_then(|n| n.parent);
        }
        out
    }

    /// Commits `id` into its parent: effects become the parent's, locks are
    /// inherited by the parent (anti-inheritance for roots: released).
    pub fn commit_sub(&self, id: SubTxnId) -> Result<(), NestedError> {
        let parent = Self::mark_committed(&mut self.nodes.lock(), id)?;
        self.hand_over_locks(id, parent);
        Ok(())
    }

    /// Aborts `id`, cascading to its active descendants first.
    pub fn abort_sub(&self, id: SubTxnId) -> Result<(), NestedError> {
        let aborted = Self::mark_aborted(&mut self.nodes.lock(), id)?;
        self.release_aborted(aborted);
        Ok(())
    }

    /// Commits `id` (`committed`) or aborts it, as [`Self::commit_sub`]
    /// and [`Self::abort_sub`] do, and removes it and its descendants from
    /// the table under the same acquisition of the node-table lock,
    /// unlinking it from its parent. A commit refused for an active child
    /// leaves the node in place.
    pub fn finish_sub(&self, id: SubTxnId, committed: bool) -> Result<(), NestedError> {
        let mut nodes = self.nodes.lock();
        if committed {
            // Removed at once, so never marked committed.
            let parent = Self::check_commit(&nodes, id)?;
            Self::remove_subtree(&mut nodes, id);
            drop(nodes);
            self.hand_over_locks(id, parent);
        } else {
            let aborted = Self::mark_aborted(&mut nodes, id)?;
            Self::remove_subtree(&mut nodes, id);
            drop(nodes);
            self.release_aborted(aborted);
        }
        Ok(())
    }

    /// Marks `id` committed; returns its parent.
    fn mark_committed(nodes: &mut NodeMap, id: SubTxnId) -> Result<Option<SubTxnId>, NestedError> {
        let parent = Self::check_commit(nodes, id)?;
        nodes.get_mut(&id).expect("checked").state = SubTxnState::Committed;
        Ok(parent)
    }

    /// Whether `id` may commit (it is active and no child is); returns
    /// its parent.
    fn check_commit(nodes: &NodeMap, id: SubTxnId) -> Result<Option<SubTxnId>, NestedError> {
        let info = nodes.get(&id).ok_or(NestedError::Unknown(id))?;
        if info.state != SubTxnState::Active {
            return Err(NestedError::NotActive(id));
        }
        if info
            .children
            .iter()
            .any(|c| nodes.get(c).is_some_and(|n| n.state == SubTxnState::Active))
        {
            return Err(NestedError::ActiveChild(id));
        }
        Ok(info.parent)
    }

    /// Marks `id` and its active descendants aborted; returns them,
    /// parents before children.
    fn mark_aborted(nodes: &mut NodeMap, id: SubTxnId) -> Result<Vec<SubTxnId>, NestedError> {
        let info = nodes.get(&id).ok_or(NestedError::Unknown(id))?;
        if info.state != SubTxnState::Active {
            return Err(NestedError::NotActive(id));
        }
        let mut order = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let Some(info) = nodes.get_mut(&n).filter(|i| i.state == SubTxnState::Active) {
                info.state = SubTxnState::Aborted;
                order.push(n);
                stack.extend_from_slice(&info.children);
            }
        }
        Ok(order)
    }

    /// Commit's lock rule: the parent inherits, a root releases.
    fn hand_over_locks(&self, id: SubTxnId, parent: Option<SubTxnId>) {
        match parent {
            Some(p) => self.locks.inherit(id, p),
            None => self.locks.release_all(id),
        }
    }

    /// Releases the locks of aborted nodes, deepest first so children
    /// release before parents.
    fn release_aborted(&self, aborted: Vec<SubTxnId>) {
        for n in aborted.into_iter().rev() {
            self.locks.release_all(n);
        }
    }

    /// Removes `id` and its descendants, unlinking `id` from its parent.
    fn remove_subtree(nodes: &mut NodeMap, id: SubTxnId) {
        let Some(info) = nodes.remove(&id) else { return };
        if let Some(parent) = info.parent.and_then(|p| nodes.get_mut(&p)) {
            parent.children.retain(|c| *c != id);
        }
        // The removed node's child list is the work stack: empty, as a
        // finished rule subtransaction's is, it costs no allocation.
        let mut stack = info.children;
        while let Some(n) = stack.pop() {
            if let Some(info) = nodes.remove(&n) {
                stack.extend(info.children);
            }
        }
    }

    /// Removes all bookkeeping for the tree rooted at `root` (after the
    /// top-level transaction finishes).
    pub fn forget_tree(&self, root: SubTxnId) {
        Self::remove_subtree(&mut self.nodes.lock(), root);
    }

    /// Number of live (tracked) subtransactions — diagnostics.
    pub fn live_count(&self) -> usize {
        self.nodes.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::LockMode;

    #[test]
    fn tree_lifecycle() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(100);
        let c1 = m.begin_sub(root).unwrap();
        let c2 = m.begin_sub(root).unwrap();
        let g = m.begin_sub(c1).unwrap();
        assert_eq!(m.depth(root), Some(0));
        assert_eq!(m.depth(g), Some(2));
        assert_eq!(m.top_of(g), Some(100));
        assert_eq!(m.ancestry(g), vec![g, c1, root]);

        m.commit_sub(g).unwrap();
        m.commit_sub(c1).unwrap();
        m.abort_sub(c2).unwrap();
        m.commit_sub(root).unwrap();
        assert_eq!(m.state(root), Some(SubTxnState::Committed));
        m.forget_tree(root);
        assert_eq!(m.live_count(), 0);
    }

    #[test]
    fn commit_with_active_child_is_rejected() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        let c = m.begin_sub(root).unwrap();
        assert_eq!(m.commit_sub(root), Err(NestedError::ActiveChild(root)));
        m.commit_sub(c).unwrap();
        m.commit_sub(root).unwrap();
    }

    #[test]
    fn begin_under_finished_parent_is_rejected() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        let c = m.begin_sub(root).unwrap();
        m.abort_sub(c).unwrap();
        assert!(matches!(m.begin_sub(c), Err(NestedError::ParentNotActive(_))));
    }

    #[test]
    fn abort_cascades_to_descendants() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        let c = m.begin_sub(root).unwrap();
        let g = m.begin_sub(c).unwrap();
        m.abort_sub(c).unwrap();
        assert_eq!(m.state(g), Some(SubTxnState::Aborted));
        assert_eq!(m.state(root), Some(SubTxnState::Active));
    }

    #[test]
    fn lock_inheritance_on_commit() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        let c = m.begin_sub(root).unwrap();
        let anc: std::collections::HashSet<_> = m.ancestry(c).into_iter().collect();
        m.locks().lock(c, &anc, 55, LockMode::Exclusive).unwrap();
        m.commit_sub(c).unwrap();
        // The parent now holds the lock: a sibling can't take it…
        let sib = m.begin_sub(root).unwrap();
        let anc_sib: std::collections::HashSet<_> = m.ancestry(sib).into_iter().collect();
        // …but CAN take it because the holder (root) is its ancestor.
        m.locks().lock(sib, &anc_sib, 55, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn finish_sub_resolves_and_removes_the_node() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        let c = m.begin_sub(root).unwrap();
        let g = m.begin_sub(c).unwrap();
        assert_eq!(m.finish_sub(c, true), Err(NestedError::ActiveChild(c)), "child still active");
        assert_eq!(m.live_count(), 3, "a refused commit leaves the node in place");
        m.finish_sub(g, true).unwrap();
        m.finish_sub(c, true).unwrap();
        assert_eq!((m.state(c), m.live_count()), (None, 1));
        // The root keeps no dead child: it commits, and a new child begins.
        let d = m.begin_sub(root).unwrap();
        let e = m.begin_sub(d).unwrap();
        m.finish_sub(d, false).unwrap();
        assert_eq!((m.state(e), m.live_count()), (None, 1), "abort removes the subtree");
        assert_eq!(m.finish_sub(d, true), Err(NestedError::Unknown(d)));
        m.commit_sub(root).unwrap();
        m.forget_tree(root);
        assert_eq!(m.live_count(), 0);
    }

    #[test]
    fn finished_subtransactions_hand_their_locks_on() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        let (c, sib) = (m.begin_sub(root).unwrap(), m.begin_sub(root).unwrap());
        let anc: std::collections::HashSet<_> = m.ancestry(c).into_iter().collect();
        m.locks().lock(c, &anc, 7, LockMode::Exclusive).unwrap();
        m.finish_sub(c, true).unwrap();
        // The root inherited the lock: its child takes it.
        let anc_sib: std::collections::HashSet<_> = m.ancestry(sib).into_iter().collect();
        m.locks().lock(sib, &anc_sib, 7, LockMode::Exclusive).unwrap();
        m.finish_sub(sib, false).unwrap();
        assert_eq!(m.locks().active_resources(), 1, "the root's inherited lock remains");
        m.commit_sub(root).unwrap();
        assert_eq!(m.locks().active_resources(), 0, "a root's commit releases");
    }

    #[test]
    fn double_commit_rejected() {
        let m = NestedTxnManager::new();
        let root = m.begin_top(1);
        m.commit_sub(root).unwrap();
        assert_eq!(m.commit_sub(root), Err(NestedError::NotActive(root)));
        assert_eq!(m.abort_sub(root), Err(NestedError::NotActive(root)));
    }
}
