//! Checksummed frames: the one writer and the one reader of
//! `[len: u32 LE][crc32: u32 LE][payload]`.
//!
//! The WAL ([`crate::wal`]) and the durability layer's catalog, journals and
//! checkpoints all store records in this layout, so the checksum, the frame
//! writer and the torn-tail scan live here once. A scan ([`frames`]) walks
//! frames from the front and stops at the first torn or corrupt one: short
//! header, short payload, length over [`MAX_FRAME`], or checksum mismatch.
//! What each log does with a frame it cannot decode stays with the log.

/// Frame header size in bytes.
pub const HEADER: usize = 8;

/// Upper bound on one frame's payload; anything larger is corruption.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the state with eight
/// independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected, as in zlib) used to detect
/// torn records.
///
/// Implemented locally to stay within the approved dependency set.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one frame to `out`: reserves the header, lets `payload` append
/// the payload bytes behind it, then fills in their length and checksum.
pub fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; HEADER]);
    payload(out);
    let body = at + HEADER;
    let len = u32::try_from(out.len() - body).expect("frame payload under 4 GiB");
    let crc = crc32(&out[body..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// The intact frames at the front of `data`: `(offset, payload)` pairs,
/// where `offset` is where the frame's header starts. Iteration ends at
/// the first torn or corrupt frame, so the end of the last frame yielded
/// is the valid prefix a log may resume appending at.
pub fn frames(data: &[u8]) -> Frames<'_> {
    Frames { data, off: 0 }
}

/// Iterator returned by [`frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<(usize, &'a [u8])> {
        let at = self.off;
        let header = self.data.get(at..at.checked_add(HEADER)?)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_FRAME {
            return None;
        }
        let payload = self.data.get(at + HEADER..at + HEADER + len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        self.off = at + HEADER + payload.len();
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payloads of every intact frame and the valid prefix length.
    fn scan(data: &[u8]) -> (Vec<&[u8]>, usize) {
        let all: Vec<_> = frames(data).collect();
        let valid = all.last().map_or(0, |(at, p)| at + HEADER + p.len());
        (all.into_iter().map(|(_, p)| p).collect(), valid)
    }

    fn put(out: &mut Vec<u8>, payload: &[u8]) {
        put_frame(out, |b| b.extend_from_slice(payload));
    }

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length_and_alignment() {
        // A fixed xorshift stream; the slice's start offset moves the
        // eight-byte groups across every alignment.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"sentinel wal record".to_vec();
        let before = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    #[test]
    fn put_frame_appends_behind_existing_bytes() {
        let mut out = b"prefix".to_vec();
        put_frame(&mut out, |b| b.extend_from_slice(b"123456789"));
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(out[6..10], 9u32.to_le_bytes());
        assert_eq!(out[10..14], 0xCBF4_3926u32.to_le_bytes());
        assert_eq!(&out[14..], b"123456789");
    }

    #[test]
    fn roundtrip_and_tail_stop() {
        let mut buf = Vec::new();
        put(&mut buf, b"one");
        put(&mut buf, b"two two");
        let good_len = buf.len();
        // Torn tail: header of a third frame without its payload.
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"sho");
        let offsets: Vec<usize> = frames(&buf).map(|(at, _)| at).collect();
        assert_eq!(offsets, [0, HEADER + 3]);
        assert_eq!(scan(&buf), (vec![&b"one"[..], b"two two"], good_len));
        assert_eq!(buf.len() - good_len, 11);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // What `put_frame` wrote for this payload before it moved into
        // `storage::frame` (commit 4427bb8).
        let payload = b"sentinel journal record \x00\x01\xFE\xFF";
        let mut buf = Vec::new();
        put(&mut buf, payload);
        assert_eq!(buf[..4], 28u32.to_le_bytes());
        assert_eq!(buf[4..8], [49, 78, 0, 243]);
        assert_eq!(&buf[8..], payload);
    }

    #[test]
    fn bit_flip_stops_the_scan() {
        let mut buf = Vec::new();
        put(&mut buf, b"alpha");
        put(&mut buf, b"beta");
        let first_len = HEADER + 5;
        // Flip one payload bit of the second frame.
        buf[first_len + HEADER] ^= 0x40;
        assert_eq!(scan(&buf), (vec![&b"alpha"[..]], first_len));
    }

    #[test]
    fn insane_length_is_corruption_not_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert_eq!(scan(&buf), (vec![], 0));
    }

    #[test]
    fn empty_input_is_fine() {
        assert_eq!(scan(&[]), (vec![], 0));
    }
}
