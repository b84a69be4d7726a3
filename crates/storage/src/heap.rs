//! Heap file: unordered record storage over slotted pages.
//!
//! A heap file is a set of pages managed through the buffer pool. Records
//! are addressed by [`Rid`]. Insertion scans a small cache of
//! recently-non-full pages before allocating a new one; this keeps the
//! common path O(1) without needing a persistent free-space map.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::common::{PageId, Rid, StorageError, StorageResult};
use crate::page::SlottedPage;

/// Heap file over a buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// Pages known to have had free room recently (best-effort hint).
    candidates: Mutex<Vec<PageId>>,
    /// All pages ever allocated to this heap, in order.
    pages: Mutex<Vec<PageId>>,
}

impl HeapFile {
    /// Creates an empty heap file.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        HeapFile { pool, candidates: Mutex::new(Vec::new()), pages: Mutex::new(Vec::new()) }
    }

    /// Re-attaches a heap file whose pages are already on disk (after
    /// restart). `pages` must list the heap's pages in allocation order.
    pub fn attach(pool: Arc<BufferPool>, pages: Vec<PageId>) -> Self {
        HeapFile { pool, candidates: Mutex::new(pages.clone()), pages: Mutex::new(pages) }
    }

    /// The pages belonging to this heap (persisted in the engine catalog).
    pub fn page_list(&self) -> Vec<PageId> {
        self.pages.lock().clone()
    }

    /// Inserts `record`, returning its rid.
    pub fn insert(&self, record: &[u8]) -> StorageResult<Rid> {
        // Try candidate pages first.
        {
            let candidates = self.candidates.lock().clone();
            for pid in candidates.into_iter().rev() {
                let guard = self.pool.fetch(pid)?;
                let mut data = guard.write();
                let mut page = SlottedPage::new(&mut data);
                if page.fits(record.len()) {
                    let slot = page.insert(record)?;
                    return Ok(Rid::new(pid, slot));
                }
            }
        }
        // Allocate a fresh page.
        let guard = self.pool.allocate()?;
        let pid = guard.page_id();
        let slot = {
            let mut data = guard.write();
            let mut page = SlottedPage::new(&mut data);
            page.init();
            page.insert(record)?
        };
        self.pages.lock().push(pid);
        let mut cands = self.candidates.lock();
        cands.push(pid);
        if cands.len() > 8 {
            cands.remove(0);
        }
        Ok(Rid::new(pid, slot))
    }

    /// Inserts at an exact rid (recovery redo path).
    pub fn insert_at(&self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        // Ensure the page exists (redo may run against a truncated file).
        while self.pool.disk().num_pages() <= rid.page.0 {
            let g = self.pool.allocate()?;
            let mut data = g.write();
            SlottedPage::new(&mut data).init();
            self.pages.lock().push(g.page_id());
        }
        {
            let mut pages = self.pages.lock();
            if !pages.contains(&rid.page) {
                pages.push(rid.page);
            }
        }
        let guard = self.pool.fetch(rid.page)?;
        let mut data = guard.write();
        SlottedPage::new(&mut data).insert_at(rid.slot, record)
    }

    /// Reads the record at `rid`.
    pub fn get(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        self.read_with(rid, <[u8]>::to_vec)
    }

    /// Hands the record at `rid` to `f` where it lies in its pinned page.
    /// `f` runs under the page latch.
    pub fn read_with<R>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let guard = self.pool.fetch(rid.page)?;
        let data = guard.read();
        ReadPage(&data[..]).get(rid.slot).map(f).ok_or(StorageError::RecordNotFound(rid))
    }

    /// Rewrites the record at `rid`; returns the before image.
    ///
    /// If the new record no longer fits in its page the record is *not*
    /// moved (rids are stable); the caller sees an error and can delete +
    /// re-insert. The OODB layer sizes objects well under a page, so this
    /// path is exercised only by adversarial tests.
    pub fn update(&self, rid: Rid, record: &[u8]) -> StorageResult<Vec<u8>> {
        let guard = self.pool.fetch(rid.page)?;
        let mut data = guard.write();
        let mut page = SlottedPage::new(&mut data);
        let before =
            page.get(rid.slot).map(<[u8]>::to_vec).ok_or(StorageError::RecordNotFound(rid))?;
        page.update(rid.slot, record)?;
        Ok(before)
    }

    /// Deletes the record at `rid`; returns the before image.
    pub fn delete(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        let guard = self.pool.fetch(rid.page)?;
        let mut data = guard.write();
        let mut page = SlottedPage::new(&mut data);
        let before =
            page.get(rid.slot).map(<[u8]>::to_vec).ok_or(StorageError::RecordNotFound(rid))?;
        page.delete(rid.slot)?;
        let mut cands = self.candidates.lock();
        if !cands.contains(&rid.page) {
            cands.push(rid.page);
            if cands.len() > 8 {
                cands.remove(0);
            }
        }
        Ok(before)
    }

    /// Full scan: `(rid, record)` for every live record.
    pub fn scan(&self) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let pages = self.pages.lock().clone();
        let mut out = Vec::new();
        for pid in pages {
            let guard = self.pool.fetch(pid)?;
            let data = guard.read();
            let page = ReadPage(&data[..]);
            for (slot, rec) in page.iter() {
                out.push((Rid::new(pid, slot), rec.to_vec()));
            }
        }
        Ok(out)
    }
}

/// Read-only view over slotted-page bytes (no `&mut` needed).
struct ReadPage<'a>(&'a [u8]);

impl<'a> ReadPage<'a> {
    fn num_slots(&self) -> u16 {
        u16::from_le_bytes([self.0[0], self.0[1]])
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let base = 8 + usize::from(i) * 4;
        (
            u16::from_le_bytes([self.0[base], self.0[base + 1]]),
            u16::from_le_bytes([self.0[base + 2], self.0[base + 3]]),
        )
    }

    fn get(&self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.num_slots() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == 0 && len == 0 {
            return None;
        }
        Some(&self.0[usize::from(off)..usize::from(off) + usize::from(len)])
    }

    fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        (0..self.num_slots()).filter_map(move |i| self.get(i).map(|r| (i, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        HeapFile::new(pool)
    }

    #[test]
    fn insert_get_update_delete() {
        let h = heap();
        let rid = h.insert(b"alpha").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"alpha");
        let before = h.update(rid, b"beta").unwrap();
        assert_eq!(before, b"alpha");
        assert_eq!(h.get(rid).unwrap(), b"beta");
        let before = h.delete(rid).unwrap();
        assert_eq!(before, b"beta");
        assert!(matches!(h.get(rid), Err(StorageError::RecordNotFound(_))));
    }

    #[test]
    fn many_inserts_spill_to_new_pages() {
        let h = heap();
        let rec = vec![1u8; 512];
        let rids: Vec<_> = (0..64).map(|_| h.insert(&rec).unwrap()).collect();
        let distinct_pages: std::collections::HashSet<_> = rids.iter().map(|r| r.page).collect();
        assert!(distinct_pages.len() > 1, "should have used several pages");
        for rid in &rids {
            assert_eq!(h.get(*rid).unwrap().len(), 512);
        }
    }

    #[test]
    fn scan_sees_all_live_records() {
        let h = heap();
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        let c = h.insert(b"c").unwrap();
        h.delete(b).unwrap();
        let scanned: Vec<_> = h.scan().unwrap();
        let rids: Vec<_> = scanned.iter().map(|(r, _)| *r).collect();
        assert!(rids.contains(&a) && rids.contains(&c) && !rids.contains(&b));
    }

    #[test]
    fn deleted_slot_space_is_reused() {
        let h = heap();
        let rid = h.insert(&[0u8; 1000]).unwrap();
        h.delete(rid).unwrap();
        let rid2 = h.insert(&[1u8; 1000]).unwrap();
        assert_eq!(rid.page, rid2.page, "freed space should be reused");
    }

    #[test]
    fn insert_at_creates_pages_as_needed() {
        let h = heap();
        let rid = Rid::new(PageId(2), 5);
        h.insert_at(rid, b"redo").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"redo");
    }

    #[test]
    fn attach_preserves_contents() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let h = HeapFile::new(pool.clone());
        let rid = h.insert(b"persisted").unwrap();
        let pages = h.page_list();
        drop(h);
        let h2 = HeapFile::attach(pool, pages);
        assert_eq!(h2.get(rid).unwrap(), b"persisted");
    }
}
