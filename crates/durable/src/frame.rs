//! Checksummed length-prefixed frames — the on-disk record unit shared by
//! the catalog and the event journal.
//!
//! Layout: `[len: u32 LE][crc32(payload): u32 LE][payload]`. A scan walks
//! frames from the front and stops at the first torn or corrupt one (short
//! header, short payload, length over the cap, or checksum mismatch) — the
//! same truncate-at-first-bad-record discipline as `storage::recovery`.
//! Frames are written by the WAL's frame writer (`storage::frame`).

pub use sentinel_storage::frame::HEADER;
use sentinel_storage::{crc32, frame};

/// Upper bound on one frame's payload; anything larger is corruption.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Serializes one frame into `out`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    frame::put_frame(out, |body| body.extend_from_slice(payload));
}

/// Result of scanning a byte stream for frames.
#[derive(Debug, Default)]
pub struct FrameScan {
    /// Payloads of every well-formed frame, in order.
    pub frames: Vec<Vec<u8>>,
    /// Length of the valid prefix (where appending may resume).
    pub valid_len: u64,
}

impl FrameScan {
    /// Bytes past the valid prefix (the torn/corrupt tail).
    pub fn truncated(&self, total_len: u64) -> u64 {
        total_len.saturating_sub(self.valid_len)
    }
}

/// Walks `data` frame by frame, stopping at the first bad one.
pub fn scan_frames(data: &[u8]) -> FrameScan {
    let mut scan = FrameScan::default();
    let mut off = 0usize;
    while data.len() - off >= HEADER {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
        if len > MAX_FRAME {
            break;
        }
        let len = len as usize;
        let start = off + HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= data.len()) else {
            break;
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break;
        }
        scan.frames.push(payload.to_vec());
        off = end;
        scan.valid_len = off as u64;
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_tail_stop() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"one");
        put_frame(&mut buf, b"two two");
        let good_len = buf.len() as u64;
        // Torn tail: header of a third frame without its payload.
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"sho");
        let scan = scan_frames(&buf);
        assert_eq!(scan.frames, vec![b"one".to_vec(), b"two two".to_vec()]);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.truncated(buf.len() as u64), 11);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // What `put_frame` wrote for this payload before it moved into
        // `storage::frame` (commit 4427bb8).
        let payload = b"sentinel journal record \x00\x01\xFE\xFF";
        let mut buf = Vec::new();
        put_frame(&mut buf, payload);
        assert_eq!(buf[..4], 28u32.to_le_bytes());
        assert_eq!(buf[4..8], [49, 78, 0, 243]);
        assert_eq!(&buf[8..], payload);
    }

    #[test]
    fn bit_flip_stops_the_scan() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"alpha");
        put_frame(&mut buf, b"beta");
        let first_len = (HEADER + 5) as u64;
        // Flip one payload bit of the second frame.
        let idx = first_len as usize + HEADER;
        buf[idx] ^= 0x40;
        let scan = scan_frames(&buf);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, first_len);
    }

    #[test]
    fn insane_length_is_corruption_not_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let scan = scan_frames(&buf);
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn empty_input_is_fine() {
        let scan = scan_frames(&[]);
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
    }
}
