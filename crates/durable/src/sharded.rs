//! The sharded (v2) event journal: one segment-rotated stream **per
//! detector shard** plus a global fence log, so parallel detection can
//! journal without serialising on a single appender.
//!
//! # Layout
//!
//! * `shard-{shard:04}-{seg:06}.seg` — per-shard streams. 16-byte header
//!   (`"SJN2"` magic, `shard: u32 LE`, `base: u64 LE` = records in this
//!   stream before the segment), then frames of
//!   `epoch: u64 LE ++ encode_event` bytes.
//! * `fences.log` — the global fence log. 8-byte header (`"SFN1"` magic,
//!   `version: u32 LE = 1`), then frames of
//!   `epoch: u64 ++ kind: u8 ++ arg: u64 ++ ts: u64`. **Always fsynced**
//!   before the epoch counter advances, so a fence on disk implies every
//!   earlier fence is on disk and fence `i` always has epoch `i`.
//!
//! # Ordering
//!
//! Records carry the epoch they were appended in; within an epoch the
//! shared logical clock timestamp is a total tiebreaker (one atomic
//! clock, globally unique ticks) and no operator compares occurrences
//! from two shards. Recovery therefore merges streams by
//! `(epoch, ts, shard)` and the result is equivalent to the live
//! happened-before order.
//!
//! # Crash repair
//!
//! The fence log is repaired first (truncate at the first bad frame or
//! the first frame whose epoch differs from its index); with `F` valid
//! fences the open epoch is `F`, so any stream record with epoch `> F`
//! can only be the product of a lost fence write — the stream is
//! truncated there. Each stream is then repaired on its own: a torn tail
//! is truncated, and every segment after a hole (a bad header, a torn or
//! undecodable frame) is deleted, since its records cannot be ordered.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, Bytes, BytesMut};
use parking_lot::Mutex;
use sentinel_detector::log::{decode_event, encode_event, LoggedEvent};
use sentinel_detector::FenceKind;

use sentinel_storage::frame::{frames, put_frame, HEADER};

const STREAM_MAGIC: &[u8; 4] = b"SJN2";
const STREAM_HEADER: usize = 16;
const FENCE_MAGIC: &[u8; 4] = b"SFN1";
const FENCE_VERSION: u32 = 1;
const FENCE_HEADER: usize = 8;
/// Fence frame payload: epoch + kind + arg + ts.
const FENCE_PAYLOAD: usize = 8 + 1 + 8 + 8;

fn stream_path(dir: &Path, shard: u32, seg: u64) -> PathBuf {
    dir.join(format!("shard-{shard:04}-{seg:06}.seg"))
}

fn fence_path(dir: &Path) -> PathBuf {
    dir.join("fences.log")
}

/// Lists v2 stream segments grouped by shard, each shard's segments
/// ascending.
fn list_streams(dir: &Path) -> io::Result<BTreeMap<u32, Vec<(u64, PathBuf)>>> {
    let mut out: BTreeMap<u32, Vec<(u64, PathBuf)>> = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("shard-").and_then(|r| r.strip_suffix(".seg")) else {
            continue;
        };
        let Some((shard, seg)) = rest.split_once('-') else { continue };
        if let (Ok(shard), Ok(seg)) = (shard.parse::<u32>(), seg.parse::<u64>()) {
            out.entry(shard).or_default().push((seg, entry.path()));
        }
    }
    for segs in out.values_mut() {
        segs.sort();
    }
    Ok(out)
}

fn encode_fence_kind(kind: FenceKind) -> (u8, u64) {
    match kind {
        FenceKind::Barrier => (0, 0),
        FenceKind::FlushTxn(txn) => (1, txn),
        FenceKind::AdvanceTime(to) => (2, to),
    }
}

fn decode_fence_kind(tag: u8, arg: u64) -> Option<FenceKind> {
    match tag {
        0 => Some(FenceKind::Barrier),
        1 => Some(FenceKind::FlushTxn(arg)),
        2 => Some(FenceKind::AdvanceTime(arg)),
        _ => None,
    }
}

/// What recovering a sharded journal found.
#[derive(Debug, Default)]
pub struct ShardedRecovery {
    /// Every decodable event, merged across streams into replay order
    /// (sorted by `(epoch, ts, shard)`).
    pub events: Vec<LoggedEvent>,
    /// Fences in epoch order as `(position, kind)`: `position` is the
    /// number of merged records that precede the fence (records with
    /// epoch `<=` the fence's).
    pub fences: Vec<(u64, FenceKind)>,
    /// Stream segment files that survive recovery.
    pub segments: u64,
    /// Bytes discarded from torn tails, dropped segments and the fence
    /// log.
    pub truncated_bytes: u64,
    /// The epoch new appends should use (= number of valid fences).
    pub next_epoch: u64,
    /// Wall time spent repairing the fence log, µs.
    pub fence_repair_us: u64,
    /// Wall time spent scanning the streams and merging them into replay
    /// order, µs.
    pub stream_merge_us: u64,
}

/// One shard's open append stream.
#[derive(Debug)]
struct Stream {
    shard: u32,
    file: File,
    seg: u64,
    seg_len: u64,
    /// Records written to this stream across all its segments.
    records: u64,
    /// Written since the last sync of this stream.
    dirty: bool,
}

fn new_stream_segment(dir: &Path, shard: u32, seg: u64, base: u64) -> io::Result<(File, u64)> {
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(stream_path(dir, shard, seg))?;
    let mut header = Vec::with_capacity(STREAM_HEADER);
    header.extend_from_slice(STREAM_MAGIC);
    header.extend_from_slice(&shard.to_le_bytes());
    header.extend_from_slice(&base.to_le_bytes());
    file.write_all(&header)?;
    file.sync_data()?;
    Ok((file, STREAM_HEADER as u64))
}

/// Outcome of one stream append.
#[derive(Debug, Clone, Copy)]
pub struct StreamAppend {
    /// Frame bytes written (header + payload).
    pub bytes: u64,
    /// The segment was sealed (fsynced) and a new one started.
    pub rotated: bool,
}

/// The open sharded journal: per-shard append streams plus the fence
/// log. Appends on different shards only contend on a brief map lookup;
/// the actual write happens under the per-stream lock.
#[derive(Debug)]
pub struct ShardedJournal {
    dir: PathBuf,
    segment_bytes: u64,
    streams: Mutex<BTreeMap<u32, Arc<Mutex<Stream>>>>,
    fences: Mutex<FenceWriter>,
}

/// Valid fences in epoch order, as `(kind, ts)`.
type FenceList = Vec<(FenceKind, u64)>;

/// Tail segment position: `(segment number, valid length)`, with a
/// `u64::MAX` length meaning "whole file".
type SegTail = Option<(u64, u64)>;

#[derive(Debug)]
struct FenceWriter {
    file: File,
}

impl FenceWriter {
    /// Opens (repairing) the fence log; returns the writer, the valid
    /// fences as `(kind, ts)` in epoch order, and bytes truncated.
    fn open(dir: &Path) -> io::Result<(FenceWriter, FenceList, u64)> {
        let path = fence_path(dir);
        let mut fences = Vec::new();
        let mut truncated = 0u64;
        let mut fresh = true;
        if path.exists() {
            let mut data = Vec::new();
            File::open(&path)?.read_to_end(&mut data)?;
            let total = data.len() as u64;
            let header_ok = data.len() >= FENCE_HEADER
                && &data[..4] == FENCE_MAGIC
                && u32::from_le_bytes(data[4..8].try_into().unwrap()) == FENCE_VERSION;
            if header_ok {
                let mut valid_len = FENCE_HEADER as u64;
                for (_, payload) in frames(&data[FENCE_HEADER..]) {
                    let ok = payload.len() == FENCE_PAYLOAD
                        && u64::from_le_bytes(payload[..8].try_into().unwrap())
                            == fences.len() as u64;
                    let kind = if ok {
                        decode_fence_kind(
                            payload[8],
                            u64::from_le_bytes(payload[9..17].try_into().unwrap()),
                        )
                    } else {
                        None
                    };
                    match kind {
                        Some(kind) => {
                            let ts = u64::from_le_bytes(payload[17..25].try_into().unwrap());
                            fences.push((kind, ts));
                            valid_len += (HEADER + payload.len()) as u64;
                        }
                        // A malformed fence frame (or an epoch hole) ends
                        // the trusted prefix.
                        None => break,
                    }
                }
                if valid_len < total {
                    truncated = total - valid_len;
                    OpenOptions::new().write(true).open(&path)?.set_len(valid_len)?;
                }
                fresh = false;
            } else {
                truncated = total;
            }
        }
        if fresh {
            let mut file =
                OpenOptions::new().create(true).truncate(true).write(true).open(&path)?;
            let mut header = Vec::with_capacity(FENCE_HEADER);
            header.extend_from_slice(FENCE_MAGIC);
            header.extend_from_slice(&FENCE_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((FenceWriter { file }, fences, truncated))
    }

    fn append(&mut self, epoch: u64, kind: FenceKind, ts: u64) -> io::Result<()> {
        let (tag, arg) = encode_fence_kind(kind);
        let mut payload = Vec::with_capacity(FENCE_PAYLOAD);
        payload.extend_from_slice(&epoch.to_le_bytes());
        payload.push(tag);
        payload.extend_from_slice(&arg.to_le_bytes());
        payload.extend_from_slice(&ts.to_le_bytes());
        let mut buf = Vec::with_capacity(FENCE_PAYLOAD + HEADER);
        put_frame(&mut buf, |b| b.extend_from_slice(&payload));
        self.file.write_all(&buf)?;
        // The fence log is the ordering ground truth: always durable
        // before the epoch advances.
        self.file.sync_data()
    }
}

/// One recovered record before merging.
struct RawRecord {
    epoch: u64,
    ts: u64,
    shard: u32,
    ev: LoggedEvent,
}

impl ShardedJournal {
    /// Opens the sharded journal in `dir`, repairing streams and fence
    /// log, and returns the merged recovery.
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<(ShardedJournal, ShardedRecovery)> {
        let mut recovery = ShardedRecovery::default();
        let t_fence = std::time::Instant::now();
        let (fence_writer, fence_list, fence_truncated) = FenceWriter::open(dir)?;
        recovery.fence_repair_us = t_fence.elapsed().as_micros() as u64;
        recovery.truncated_bytes += fence_truncated;
        recovery.next_epoch = fence_list.len() as u64;
        let cutoff = recovery.next_epoch;

        let t_merge = std::time::Instant::now();
        let mut records: Vec<RawRecord> = Vec::new();
        let mut streams = BTreeMap::new();
        for (shard, segs) in list_streams(dir)? {
            let (stream_records, tail, truncated) =
                scan_stream(shard, &segs, cutoff, &mut records)?;
            recovery.truncated_bytes += truncated;
            if let Some((seg, valid_len)) = tail {
                let path = stream_path(dir, shard, seg);
                let file = OpenOptions::new().append(true).open(&path)?;
                let seg_len =
                    if valid_len == u64::MAX { file.metadata()?.len() } else { valid_len };
                streams.insert(
                    shard,
                    Arc::new(Mutex::new(Stream {
                        shard,
                        file,
                        seg,
                        seg_len,
                        records: stream_records,
                        dirty: false,
                    })),
                );
            }
        }
        recovery.segments = list_streams(dir)?.values().map(|segs| segs.len() as u64).sum::<u64>();

        // Merge into replay order. Within an epoch the shared clock makes
        // `ts` a total tiebreaker; the sort is stable so same-ts records
        // (pinned-timestamp replays) keep their per-stream order.
        records.sort_by_key(|r| (r.epoch, r.ts, r.shard));
        recovery.fences = fence_list
            .iter()
            .enumerate()
            .map(|(i, (kind, _ts))| {
                let pos = records.partition_point(|r| r.epoch <= i as u64) as u64;
                (pos, *kind)
            })
            .collect();
        recovery.events = records.into_iter().map(|r| r.ev).collect();
        recovery.stream_merge_us = t_merge.elapsed().as_micros() as u64;

        let journal = ShardedJournal {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(STREAM_HEADER as u64 + 1),
            streams: Mutex::new(streams),
            fences: Mutex::new(fence_writer),
        };
        Ok((journal, recovery))
    }

    fn stream(&self, shard: u32) -> io::Result<Arc<Mutex<Stream>>> {
        let mut map = self.streams.lock();
        if let Some(s) = map.get(&shard) {
            return Ok(s.clone());
        }
        let (file, seg_len) = new_stream_segment(&self.dir, shard, 0, 0)?;
        let s =
            Arc::new(Mutex::new(Stream { shard, file, seg: 0, seg_len, records: 0, dirty: false }));
        map.insert(shard, s.clone());
        Ok(s)
    }

    /// Appends one event to `shard`'s stream, stamped with `epoch`.
    /// Durability is the committer's job — only rotation syncs inline
    /// (sealing the old segment).
    pub fn append(&self, shard: u32, epoch: u64, ev: &LoggedEvent) -> io::Result<StreamAppend> {
        let stream = self.stream(shard)?;
        let mut s = stream.lock();
        let mut payload = BytesMut::new();
        payload.extend_from_slice(&epoch.to_le_bytes());
        encode_event(&mut payload, ev);
        let mut buf = Vec::with_capacity(payload.len() + HEADER);
        put_frame(&mut buf, |b| b.extend_from_slice(&payload));
        s.file.write_all(&buf)?;
        s.seg_len += buf.len() as u64;
        s.records += 1;
        s.dirty = true;
        let rotated = s.seg_len >= self.segment_bytes;
        if rotated {
            // Rotation always seals the old segment durably.
            s.file.sync_data()?;
            s.dirty = false;
            let (file, seg_len) = new_stream_segment(&self.dir, s.shard, s.seg + 1, s.records)?;
            s.seg += 1;
            s.file = file;
            s.seg_len = seg_len;
        }
        Ok(StreamAppend { bytes: buf.len() as u64, rotated })
    }

    /// Appends (and fsyncs) one fence stamped with the epoch it closes.
    pub fn append_fence(&self, epoch: u64, kind: FenceKind, ts: u64) -> io::Result<()> {
        self.fences.lock().append(epoch, kind, ts)
    }

    /// Syncs every stream with unsynced writes; returns how many files
    /// were fsynced.
    pub fn sync_dirty(&self) -> io::Result<u64> {
        let streams: Vec<_> = self.streams.lock().values().cloned().collect();
        let mut synced = 0u64;
        for stream in streams {
            let mut s = stream.lock();
            if s.dirty {
                s.file.sync_data()?;
                s.dirty = false;
                synced += 1;
            }
        }
        Ok(synced)
    }
}

/// Scans one shard's segments in order, appending surviving records to
/// `records`. Returns `(record count, tail, truncated bytes)`.
fn scan_stream(
    shard: u32,
    segs: &[(u64, PathBuf)],
    cutoff: u64,
    records: &mut Vec<RawRecord>,
) -> io::Result<(u64, SegTail, u64)> {
    let mut count = 0u64;
    let mut truncated = 0u64;
    let mut tail: Option<(u64, u64)> = None;
    let mut corrupt_at: Option<usize> = None;
    for (i, (seg, path)) in segs.iter().enumerate() {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        let total = data.len() as u64;
        let header_ok = data.len() >= STREAM_HEADER
            && &data[..4] == STREAM_MAGIC
            && u32::from_le_bytes(data[4..8].try_into().unwrap()) == shard
            && u64::from_le_bytes(data[8..16].try_into().unwrap()) == count;
        if !header_ok {
            truncated += total;
            corrupt_at = Some(i);
            break;
        }
        let mut valid_len = STREAM_HEADER as u64;
        let mut clean = true;
        for (_, payload) in frames(&data[STREAM_HEADER..]) {
            if payload.len() <= 8 {
                clean = false;
                break;
            }
            let epoch = u64::from_le_bytes(payload[..8].try_into().unwrap());
            if epoch > cutoff {
                // The fence that would have opened this epoch never made
                // it to disk: the record is from a lost future.
                clean = false;
                break;
            }
            let mut buf = Bytes::copy_from_slice(&payload[8..]);
            match decode_event(&mut buf) {
                Some(ev) if !buf.has_remaining() => {
                    records.push(RawRecord { epoch, ts: ev.ts(), shard, ev });
                    count += 1;
                    valid_len += (HEADER + payload.len()) as u64;
                }
                _ => {
                    clean = false;
                    break;
                }
            }
        }
        // A torn tail past the last intact frame is unclean too.
        clean = clean && valid_len == total;
        truncated += total - valid_len;
        tail = Some((*seg, valid_len));
        if !clean {
            if valid_len > STREAM_HEADER as u64 {
                fs::OpenOptions::new().write(true).open(path)?.set_len(valid_len)?;
            } else {
                truncated += STREAM_HEADER as u64;
                fs::remove_file(path)?;
                tail = if *seg == 0 { None } else { Some((*seg - 1, u64::MAX)) };
            }
            corrupt_at = Some(i + 1);
            break;
        }
    }
    if let Some(from) = corrupt_at {
        for (_, path) in &segs[from..] {
            truncated += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(path)?;
        }
    }
    Ok((count, tail, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_detector::Value;

    fn ev(ts: u64, name: &str) -> LoggedEvent {
        LoggedEvent::Explicit {
            name: name.into(),
            params: vec![("ts".into(), Value::Int(ts as i64))],
            txn: None,
            ts,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sentinel-shj-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn merge_orders_by_epoch_then_ts() {
        let dir = tmp("merge");
        {
            let (j, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
            assert!(rec.events.is_empty());
            // Epoch 0: interleaved shards, distinct ts.
            j.append(1, 0, &ev(2, "a")).unwrap();
            j.append(0, 0, &ev(1, "b")).unwrap();
            j.append(0, 0, &ev(4, "c")).unwrap();
            j.append(1, 0, &ev(3, "d")).unwrap();
            j.append_fence(0, FenceKind::FlushTxn(7), 4).unwrap();
            // Epoch 1: even a record with a lower ts than the epoch-0
            // records must sort after the fence — epoch dominates.
            j.append(1, 1, &ev(0, "e")).unwrap();
            j.sync_dirty().unwrap();
        }
        let (_, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        let names: Vec<_> = rec
            .events
            .iter()
            .map(|e| match e {
                LoggedEvent::Explicit { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, ["b", "a", "d", "c", "e"]);
        assert_eq!(rec.fences, vec![(4, FenceKind::FlushTxn(7))]);
        assert_eq!(rec.next_epoch, 1);
        assert_eq!(rec.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streams_rotate_independently() {
        let dir = tmp("rot");
        {
            let (j, _) = ShardedJournal::open(&dir, 200).unwrap();
            for i in 0..30 {
                j.append(0, 0, &ev(i * 2 + 1, "x")).unwrap();
            }
            j.append(1, 0, &ev(100, "y")).unwrap();
            j.sync_dirty().unwrap();
        }
        let (_, rec) = ShardedJournal::open(&dir, 200).unwrap();
        assert_eq!(rec.events.len(), 31);
        let shard0_segs = list_streams(&dir).unwrap()[&0].len();
        assert!(shard0_segs > 1, "tiny cap must rotate shard 0");
        assert_eq!(list_streams(&dir).unwrap()[&1].len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_stream_tail_truncates_only_that_stream() {
        let dir = tmp("torn");
        {
            let (j, _) = ShardedJournal::open(&dir, 1 << 20).unwrap();
            for i in 0..5 {
                j.append(0, 0, &ev(i + 1, "a")).unwrap();
                j.append(1, 0, &ev(i + 10, "b")).unwrap();
            }
            j.sync_dirty().unwrap();
        }
        let path = stream_path(&dir, 1, 0);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        let (_, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        assert_eq!(rec.events.len(), 9, "shard 1 loses only its torn record");
        assert!(rec.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_drops_later_segments() {
        let dir = tmp("mid");
        {
            let (j, _) = ShardedJournal::open(&dir, 128).unwrap();
            for i in 0..40 {
                j.append(0, 0, &ev(i + 1, "x")).unwrap();
            }
            j.sync_dirty().unwrap();
        }
        let segs = list_streams(&dir).unwrap()[&0].clone();
        assert!(segs.len() >= 3, "tiny cap must rotate, got {segs:?}");
        // Flip a bit in the first frame's payload of the middle segment.
        let victim = &segs[1].1;
        let mut data = fs::read(victim).unwrap();
        data[STREAM_HEADER + HEADER + 2] ^= 0x01;
        fs::write(victim, &data).unwrap();

        let (j, rec) = ShardedJournal::open(&dir, 128).unwrap();
        let survivors = list_streams(&dir).unwrap()[&0].clone();
        assert_eq!(survivors, segs[..1], "the hole and every later segment are deleted");
        assert!(rec.events.len() < 40, "records after the corruption are dropped");
        assert!(rec.truncated_bytes > 0);
        // Appends resume after the surviving prefix.
        let kept = rec.events.len();
        j.append(0, 0, &ev(100, "y")).unwrap();
        j.sync_dirty().unwrap();
        drop(j);
        let (_, rec) = ShardedJournal::open(&dir, 128).unwrap();
        assert_eq!(rec.events.len(), kept + 1);
        assert_eq!(rec.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_header_segment_is_removed() {
        let dir = tmp("hdr");
        {
            let (j, _) = ShardedJournal::open(&dir, 1 << 20).unwrap();
            for i in 0..3 {
                j.append(0, 0, &ev(i + 1, "x")).unwrap();
            }
            j.sync_dirty().unwrap();
        }
        // A later segment with a garbage header (e.g. created, then crashed
        // before the header write hit disk).
        fs::write(stream_path(&dir, 0, 1), [0u8; 7]).unwrap();
        let (j, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        assert_eq!(rec.events.len(), 3);
        assert!(rec.truncated_bytes >= 7);
        assert!(!stream_path(&dir, 0, 1).exists());
        j.append(0, 0, &ev(4, "x")).unwrap();
        j.sync_dirty().unwrap();
        drop(j);
        let (_, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        assert_eq!(rec.events.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_fence_orphans_future_epoch_records() {
        let dir = tmp("fence");
        {
            let (j, _) = ShardedJournal::open(&dir, 1 << 20).unwrap();
            j.append(0, 0, &ev(1, "a")).unwrap();
            j.append_fence(0, FenceKind::Barrier, 1).unwrap();
            j.append(0, 1, &ev(2, "b")).unwrap();
            j.append_fence(1, FenceKind::Barrier, 2).unwrap();
            j.append(0, 2, &ev(3, "c")).unwrap();
            j.sync_dirty().unwrap();
        }
        // Tear the second fence off the log: epoch-2 records are now from
        // a lost future and must be dropped.
        let path = fence_path(&dir);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let (_, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.fences.len(), 1);
        assert_eq!(rec.next_epoch, 1);
        assert!(rec.truncated_bytes > 0);
        // Reopen once more: the repair is stable.
        let (_, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fence_positions_count_preceding_records() {
        let dir = tmp("pos");
        {
            let (j, _) = ShardedJournal::open(&dir, 1 << 20).unwrap();
            j.append_fence(0, FenceKind::Barrier, 0).unwrap();
            j.append(0, 1, &ev(1, "a")).unwrap();
            j.append(1, 1, &ev(2, "b")).unwrap();
            j.append_fence(1, FenceKind::AdvanceTime(50), 2).unwrap();
            j.append_fence(2, FenceKind::FlushTxn(9), 2).unwrap();
            j.append(0, 3, &ev(3, "c")).unwrap();
            j.sync_dirty().unwrap();
        }
        let (_, rec) = ShardedJournal::open(&dir, 1 << 20).unwrap();
        assert_eq!(
            rec.fences,
            vec![
                (0, FenceKind::Barrier),
                (2, FenceKind::AdvanceTime(50)),
                (2, FenceKind::FlushTxn(9)),
            ]
        );
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.next_epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
