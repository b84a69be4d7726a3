//! Event-graph checkpoints: periodic snapshots of per-node, per-context
//! operator state, each tagged with the journal offset it covers so
//! recovery can load the newest valid checkpoint and replay only the
//! journal suffix.
//!
//! A checkpoint `ckpt-{tag:016}.ck` holds a fixed header (`"SCKP"` magic,
//! format version, the tag, payload length and crc32) followed by the
//! [`GraphSnapshot`] encoding. Files are written to a temp name, fsynced,
//! renamed into place and the directory fsynced — a crash mid-write
//! leaves at most a stray `.tmp`, never a half-valid checkpoint under the
//! real name. The newest two checkpoints are retained so a checkpoint
//! that is corrupt on disk (or fails live-graph validation in `core`)
//! still leaves an older fallback with a longer replay.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use sentinel_detector::GraphSnapshot;
use sentinel_storage::{crc32, frame};

const CKPT_MAGIC: &[u8; 4] = b"SCKP";
const CKPT_VERSION: u32 = 1;
const CKPT_HEADER: usize = 4 + 4 + 8 + 4 + 4;

fn checkpoint_path(dir: &Path, tag: u64) -> PathBuf {
    dir.join(format!("ckpt-{tag:016}.ck"))
}

/// Lists `(tag, path)` pairs in `dir`, newest (highest tag) first.
fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(tag) = name.strip_prefix("ckpt-").and_then(|r| r.strip_suffix(".ck")) {
            if let Ok(tag) = tag.parse::<u64>() {
                out.push((tag, entry.path()));
            }
        }
    }
    out.sort_by_key(|e| std::cmp::Reverse(e.0));
    Ok(out)
}

/// What a checkpoint scan found.
#[derive(Debug, Default)]
pub struct CheckpointScan {
    /// Decodable checkpoints as `(tag, snapshot)`, newest first.
    pub checkpoints: Vec<(u64, GraphSnapshot)>,
    /// Total checkpoint files seen.
    pub scanned: u64,
    /// Files rejected for a bad header, checksum, or snapshot encoding.
    pub rejected: u64,
}

/// Reads every checkpoint in `dir`, newest first, dropping (but counting)
/// any that fail their header, crc, or snapshot decode. Stray `.tmp`
/// files from interrupted writes are removed.
pub fn scan_checkpoints(dir: &Path) -> io::Result<CheckpointScan> {
    let mut scan = CheckpointScan::default();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_str().is_some_and(|n| n.ends_with(".ck.tmp")) {
            let _ = fs::remove_file(entry.path());
        }
    }
    for (tag, path) in list_checkpoints(dir)? {
        scan.scanned += 1;
        let mut data = Vec::new();
        File::open(&path)?.read_to_end(&mut data)?;
        match decode_checkpoint(&data) {
            Some((file_tag, snap)) if file_tag == tag => scan.checkpoints.push((tag, snap)),
            _ => scan.rejected += 1,
        }
    }
    Ok(scan)
}

fn decode_checkpoint(data: &[u8]) -> Option<(u64, GraphSnapshot)> {
    if data.len() < CKPT_HEADER || &data[..4] != CKPT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(data[4..8].try_into().unwrap()) != CKPT_VERSION {
        return None;
    }
    let tag = u64::from_le_bytes(data[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(data[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[20..24].try_into().unwrap());
    let payload = data.get(CKPT_HEADER..CKPT_HEADER + len)?;
    if data.len() != CKPT_HEADER + len || crc32(payload) != crc {
        return None;
    }
    let snap = GraphSnapshot::decode(Bytes::copy_from_slice(payload))?;
    Some((tag, snap))
}

/// Writes a checkpoint atomically (temp + fsync + rename + dir fsync) and
/// prunes all but the newest two. Returns the bytes written.
pub fn write_checkpoint(dir: &Path, tag: u64, snap: &GraphSnapshot) -> io::Result<u64> {
    let payload = snap.encode();
    let mut data = Vec::with_capacity(CKPT_HEADER + payload.len());
    data.extend_from_slice(CKPT_MAGIC);
    data.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    data.extend_from_slice(&tag.to_le_bytes());
    // The rest of the header is a frame header: payload length, crc32.
    frame::put_frame(&mut data, |body| body.extend_from_slice(&payload));

    let final_path = checkpoint_path(dir, tag);
    let tmp_path = final_path.with_extension("ck.tmp");
    {
        let mut file =
            OpenOptions::new().create(true).truncate(true).write(true).open(&tmp_path)?;
        file.write_all(&data)?;
        file.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    File::open(dir)?.sync_all()?;

    for (_, path) in list_checkpoints(dir)?.into_iter().skip(2) {
        let _ = fs::remove_file(path);
    }
    Ok(data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_detector::LocalEventDetector;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sentinel-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snap() -> GraphSnapshot {
        // An empty graph's snapshot: no nodes, just a clock.
        LocalEventDetector::new(1).snapshot_state()
    }

    #[test]
    fn write_scan_prune_roundtrip() {
        let dir = tmp("rt");
        for tag in [10u64, 20, 30] {
            write_checkpoint(&dir, tag, &snap()).unwrap();
        }
        let scan = scan_checkpoints(&dir).unwrap();
        assert_eq!(scan.scanned, 2, "only the newest two retained");
        assert_eq!(scan.rejected, 0);
        let tags: Vec<u64> = scan.checkpoints.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![30, 20], "newest first");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmp("corrupt");
        write_checkpoint(&dir, 5, &snap()).unwrap();
        write_checkpoint(&dir, 9, &snap()).unwrap();
        // Flip a payload bit in the newest checkpoint.
        let path = checkpoint_path(&dir, 9);
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x80;
        fs::write(&path, &data).unwrap();

        let scan = scan_checkpoints(&dir).unwrap();
        assert_eq!(scan.scanned, 2);
        assert_eq!(scan.rejected, 1);
        assert_eq!(scan.checkpoints.len(), 1);
        assert_eq!(scan.checkpoints[0].0, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_tmp_is_swept_and_ignored() {
        let dir = tmp("tmp");
        write_checkpoint(&dir, 1, &snap()).unwrap();
        let stray = dir.join("ckpt-0000000000000002.ck.tmp");
        fs::write(&stray, b"half a checkpoint").unwrap();
        let scan = scan_checkpoints(&dir).unwrap();
        assert_eq!(scan.scanned, 1);
        assert!(!stray.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tag_mismatch_is_rejected() {
        let dir = tmp("mismatch");
        write_checkpoint(&dir, 7, &snap()).unwrap();
        fs::rename(checkpoint_path(&dir, 7), checkpoint_path(&dir, 8)).unwrap();
        let scan = scan_checkpoints(&dir).unwrap();
        assert_eq!(scan.rejected, 1);
        assert!(scan.checkpoints.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
