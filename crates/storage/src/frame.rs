//! Checksummed frames: the one writer of `[len: u32 LE][crc32: u32 LE][payload]`.
//!
//! The WAL ([`crate::wal`]) and the durability layer's catalog, journals and
//! checkpoints all store records in this layout, so the checksum and the
//! frame writer live here once. Readers stay with their logs: each scan has
//! its own torn-tail discipline.

/// Frame header size in bytes.
pub const HEADER: usize = 8;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
