//! Persistent object store over the storage engine.
//!
//! Records are self-describing: `[tag u8][oid u64][payload]`, where tag 0
//! is an object (payload = object-translation bytes) and tag 1 a name
//! binding (payload = name bytes; oid = target). The OID → record-id index
//! and the name table are rebuilt by scanning the heap at open — the
//! "address space manager" / "persistence manager" pair of Figure 1
//! collapsed into one module, which is all Sentinel needs from them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::RwLock;

use sentinel_storage::{Rid, StorageEngine, StorageError, StorageResult, TxnId};

use crate::object::{ObjectState, Oid};

const TAG_OBJECT: u8 = 0;
const TAG_NAME: u8 = 1;

/// Object store: OID allocation, object CRUD, and the persistent name map
/// used by the name manager.
pub struct ObjectStore {
    engine: Arc<StorageEngine>,
    next_oid: AtomicU64,
    index: RwLock<HashMap<Oid, Rid>>,
    names: RwLock<HashMap<String, (Oid, Rid)>>,
}

impl ObjectStore {
    /// Opens the store, rebuilding the OID index and name table from the
    /// engine's heap.
    pub fn open(engine: Arc<StorageEngine>) -> StorageResult<Self> {
        let mut index = HashMap::new();
        let mut names = HashMap::new();
        let mut max_oid = 0u64;
        for (rid, record) in engine.scan()? {
            let mut buf = Bytes::from(record);
            if buf.remaining() < 9 {
                continue; // not a store record
            }
            let tag = buf.get_u8();
            let oid = Oid(buf.get_u64_le());
            match tag {
                TAG_OBJECT => {
                    index.insert(oid, rid);
                    max_oid = max_oid.max(oid.0);
                }
                TAG_NAME => {
                    if let Ok(name) = String::from_utf8(buf.to_vec()) {
                        names.insert(name, (oid, rid));
                    }
                }
                _ => {}
            }
        }
        Ok(ObjectStore {
            engine,
            next_oid: AtomicU64::new(max_oid + 1),
            index: RwLock::new(index),
            names: RwLock::new(names),
        })
    }

    /// The underlying storage engine.
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    fn encode_object(oid: Oid, state: &ObjectState) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + state.encoded_len());
        out.put_u8(TAG_OBJECT);
        out.put_u64_le(oid.0);
        state.encode_into(&mut out);
        out
    }

    /// Creates a new object inside `txn`, returning its identity.
    pub fn create(&self, txn: TxnId, state: &ObjectState) -> StorageResult<Oid> {
        let oid = Oid(self.next_oid.fetch_add(1, Ordering::Relaxed));
        let rid = self.engine.insert(txn, &Self::encode_object(oid, state))?;
        self.index.write().insert(oid, rid);
        Ok(oid)
    }

    /// Reads an object's state inside `txn`, decoding it straight from its
    /// pinned page.
    pub fn get(&self, txn: TxnId, oid: Oid) -> StorageResult<ObjectState> {
        let rid = self.rid_of(oid)?;
        self.engine.read_with(txn, rid, |record| Self::decode_record(oid, record))?
    }

    fn decode_record(oid: Oid, mut buf: &[u8]) -> StorageResult<ObjectState> {
        if buf.remaining() < 9 || buf.get_u8() != TAG_OBJECT || Oid(buf.get_u64_le()) != oid {
            return Err(StorageError::Corrupt("object record header mismatch"));
        }
        ObjectState::decode(buf).ok_or(StorageError::Corrupt("undecodable object payload"))
    }

    /// Rewrites an object's state inside `txn`.
    pub fn update(&self, txn: TxnId, oid: Oid, state: &ObjectState) -> StorageResult<()> {
        let rid = self.rid_of(oid)?;
        self.engine.update(txn, rid, &Self::encode_object(oid, state))
    }

    /// Deletes an object inside `txn`.
    pub fn delete(&self, txn: TxnId, oid: Oid) -> StorageResult<()> {
        let rid = self.rid_of(oid)?;
        self.engine.delete(txn, rid)?;
        self.index.write().remove(&oid);
        Ok(())
    }

    fn rid_of(&self, oid: Oid) -> StorageResult<Rid> {
        self.index.read().get(&oid).copied().ok_or(StorageError::Corrupt("unknown oid"))
    }

    /// Whether the store currently knows `oid`.
    pub fn exists(&self, oid: Oid) -> bool {
        self.index.read().contains_key(&oid)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    /// True when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.index.read().is_empty()
    }

    /// All live oids (unordered).
    pub fn oids(&self) -> Vec<Oid> {
        self.index.read().keys().copied().collect()
    }

    /// The extent of a class: oids of all live objects whose stored class
    /// equals `class` (sorted). Reads through `txn` (shared locks), so the
    /// extent is transactionally consistent.
    pub fn extent(&self, txn: TxnId, class: &str) -> StorageResult<Vec<Oid>> {
        let mut out = Vec::new();
        let oids = self.oids();
        for oid in oids {
            match self.get(txn, oid) {
                Ok(state) if state.class == class => out.push(oid),
                Ok(_) => {}
                // Rolled-back creations can leave stale index entries.
                Err(StorageError::RecordNotFound(_)) | Err(StorageError::Corrupt(_)) => {}
                Err(e) => return Err(e),
            }
        }
        out.sort();
        Ok(out)
    }

    // --- name bindings (backing the name manager) -----------------------

    /// Binds `name` to `oid` persistently (replacing any prior binding).
    pub fn bind_name(&self, txn: TxnId, name: &str, oid: Oid) -> StorageResult<()> {
        let mut payload = BytesMut::with_capacity(name.len() + 9);
        payload.put_u8(TAG_NAME);
        payload.put_u64_le(oid.0);
        payload.put_slice(name.as_bytes());
        let payload = payload.freeze();
        let mut names = self.names.write();
        if let Some((_, rid)) = names.get(name).copied() {
            self.engine.update(txn, rid, &payload)?;
            names.insert(name.to_string(), (oid, rid));
        } else {
            let rid = self.engine.insert(txn, &payload)?;
            names.insert(name.to_string(), (oid, rid));
        }
        Ok(())
    }

    /// Resolves a name.
    pub fn resolve_name(&self, name: &str) -> Option<Oid> {
        self.names.read().get(name).map(|(oid, _)| *oid)
    }

    /// Removes a binding.
    pub fn unbind_name(&self, txn: TxnId, name: &str) -> StorageResult<bool> {
        let mut names = self.names.write();
        if let Some((_, rid)) = names.remove(name) {
            self.engine.delete(txn, rid)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// All bound names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.names.read().keys().cloned().collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_storage::disk::{DiskManager, MemDisk};
    use sentinel_storage::wal::{LogStore, MemLogStore};

    fn store_with_handles() -> (Arc<MemDisk>, Arc<MemLogStore>, ObjectStore) {
        let disk = Arc::new(MemDisk::new());
        let log = Arc::new(MemLogStore::new());
        let engine = Arc::new(
            StorageEngine::open(
                disk.clone() as Arc<dyn DiskManager>,
                log.clone() as Arc<dyn LogStore>,
            )
            .unwrap(),
        );
        (disk, log, ObjectStore::open(engine).unwrap())
    }

    fn stock(sym: &str, price: f64) -> ObjectState {
        ObjectState::new("STOCK").with("symbol", sym).with("price", price)
    }

    #[test]
    fn create_get_update_delete() {
        let (_, _, store) = store_with_handles();
        let t = store.engine().begin().unwrap();
        let oid = store.create(t, &stock("IBM", 140.0)).unwrap();
        assert_eq!(store.get(t, oid).unwrap().get("symbol").unwrap().as_str(), Some("IBM"));
        let mut s = store.get(t, oid).unwrap();
        s.set("price", 141.5);
        store.update(t, oid, &s).unwrap();
        assert_eq!(store.get(t, oid).unwrap().get("price").unwrap().as_float(), Some(141.5));
        store.delete(t, oid).unwrap();
        assert!(store.get(t, oid).is_err());
        store.engine().commit(t).unwrap();
    }

    #[test]
    fn oids_are_unique_and_monotone() {
        let (_, _, store) = store_with_handles();
        let t = store.engine().begin().unwrap();
        let a = store.create(t, &stock("A", 1.0)).unwrap();
        let b = store.create(t, &stock("B", 2.0)).unwrap();
        assert!(b.0 > a.0);
        store.engine().commit(t).unwrap();
    }

    #[test]
    fn reopen_rebuilds_index_names_and_oid_counter() {
        let (disk, log, store) = store_with_handles();
        let t = store.engine().begin().unwrap();
        let oid = store.create(t, &stock("IBM", 140.0)).unwrap();
        store.bind_name(t, "ibm", oid).unwrap();
        store.engine().commit(t).unwrap();
        store.engine().shutdown().unwrap();
        drop(store);

        let engine = Arc::new(
            StorageEngine::open(disk as Arc<dyn DiskManager>, log as Arc<dyn LogStore>).unwrap(),
        );
        let store2 = ObjectStore::open(engine).unwrap();
        assert_eq!(store2.resolve_name("ibm"), Some(oid));
        let t = store2.engine().begin().unwrap();
        assert_eq!(store2.get(t, oid).unwrap().get("symbol").unwrap().as_str(), Some("IBM"));
        let fresh = store2.create(t, &stock("NEW", 1.0)).unwrap();
        assert!(fresh.0 > oid.0, "oid counter must advance past recovered oids");
        store2.engine().commit(t).unwrap();
    }

    #[test]
    fn name_rebind_and_unbind() {
        let (_, _, store) = store_with_handles();
        let t = store.engine().begin().unwrap();
        let a = store.create(t, &stock("A", 1.0)).unwrap();
        let b = store.create(t, &stock("B", 2.0)).unwrap();
        store.bind_name(t, "fav", a).unwrap();
        store.bind_name(t, "fav", b).unwrap();
        assert_eq!(store.resolve_name("fav"), Some(b));
        assert!(store.unbind_name(t, "fav").unwrap());
        assert!(!store.unbind_name(t, "fav").unwrap());
        assert_eq!(store.resolve_name("fav"), None);
        store.engine().commit(t).unwrap();
    }

    #[test]
    fn extent_lists_class_members_only() {
        let (_, _, store) = store_with_handles();
        let t = store.engine().begin().unwrap();
        let a = store.create(t, &stock("A", 1.0)).unwrap();
        let b = store.create(t, &stock("B", 2.0)).unwrap();
        let other = store.create(t, &ObjectState::new("BOND").with("symbol", "T")).unwrap();
        assert_eq!(store.extent(t, "STOCK").unwrap(), vec![a, b]);
        assert_eq!(store.extent(t, "BOND").unwrap(), vec![other]);
        assert!(store.extent(t, "GHOST").unwrap().is_empty());
        store.delete(t, a).unwrap();
        assert_eq!(store.extent(t, "STOCK").unwrap(), vec![b]);
        store.engine().commit(t).unwrap();
    }

    #[test]
    fn aborted_create_leaves_stale_index_entry_detected_on_read() {
        let (_, _, store) = store_with_handles();
        let t = store.engine().begin().unwrap();
        let oid = store.create(t, &stock("GHOST", 0.0)).unwrap();
        store.engine().abort(t).unwrap();
        let t2 = store.engine().begin().unwrap();
        assert!(store.get(t2, oid).is_err(), "rolled-back object unreadable");
        store.engine().commit(t2).unwrap();
    }
}
