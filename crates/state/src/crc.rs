//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes a step.
//!
//! Every WAL frame and checkpoint carries a trailing CRC so recovery can
//! tell a torn tail from intact data. The vendored dependency set has no
//! checksum crate, so the classic reflected table implementation lives
//! here, in its slice-by-8 form: eight 256-entry tables built at first use
//! (table `k` advances a byte past `k` further zero bytes), so eight input
//! bytes cost eight independent lookups instead of a chain of eight
//! dependent ones — a checkpoint is megabytes, and its CRC was a third of
//! its encode. The polynomial (0xEDB88320 reflected) matches
//! zlib/`crc32fast`, so frames remain checkable by standard tooling.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slice-by-8 lookup tables, computed once. `tables()[0]` is the
/// classic one-byte-at-a-time table.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let previous = tables[k - 1][i];
                tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC-32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The one-lookup-per-byte loop `crc32` used to be: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &tables()[0];
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop_at_every_length_and_alignment() {
        // One pseudo-random buffer; every length 0..=4,099 starting at
        // every offset 0..8 covers each remainder length against each
        // alignment of the eight-byte steps.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..4_099 + 8)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=4_099 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn a_single_flipped_bit_changes_the_checksum() {
        let mut frame = b"epoch 17 payload".to_vec();
        let clean = crc32(&frame);
        frame[3] ^= 0x01;
        assert_ne!(clean, crc32(&frame));
    }
}
