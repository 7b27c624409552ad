//! CRC32 (IEEE 802.3) checksums for on-disk page integrity.
//!
//! The snapshot format (see `setsim-storage`) checksums every posting page
//! and metadata section so that a cold-start load can distinguish "this
//! index is damaged" from "this index is fine" instead of silently serving
//! wrong results. The polynomial is the reflected IEEE one (`0xEDB88320`),
//! the same used by zlib/gzip, computed with slicing-by-8: eight 256-entry
//! lookup tables built at compile time fold eight input bytes per step
//! instead of one. The values are identical to the classic byte-at-a-time
//! table loop (kept as the test-only reference) at roughly a quarter of
//! the cost — the buffer pool verifies every page access, so this loop
//! sits on the paged engine's fault path.

/// The slicing-by-8 lookup tables for the reflected IEEE polynomial.
/// `T[0]` is the classic byte table; `T[k][i]` is the register after
/// feeding byte `i` followed by `k` zero bytes, so one step combines the
/// contributions of eight input bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // lint: allow — i < 256, exact
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize]; // lint: allow — masked to 8 bits, exact
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32 (IEEE, reflected) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feed more bytes into an in-progress CRC (raw register form). Start from
/// `0xFFFF_FFFF`, finish by XOR-ing with `0xFFFF_FFFF` — or use [`crc32`]
/// for the one-shot form.
#[must_use]
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        if let [b0, b1, b2, b3, b4, b5, b6, b7] = *chunk {
            let [c0, c1, c2, c3] = crc.to_le_bytes();
            crc = t[7][usize::from(b0 ^ c0)]
                ^ t[6][usize::from(b1 ^ c1)]
                ^ t[5][usize::from(b2 ^ c2)]
                ^ t[4][usize::from(b3 ^ c3)]
                ^ t[3][usize::from(b4)]
                ^ t[2][usize::from(b5)]
                ^ t[1][usize::from(b6)]
                ^ t[0][usize::from(b7)];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic byte-at-a-time table loop: the reference the
    /// slicing-by-8 [`crc32_update`] must match bit for bit.
    fn crc32_update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
            crc = (crc >> 8) ^ CRC_TABLES[0][idx];
        }
        crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_byte_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        for i in 0..data.len() {
            let mut corrupt = data.to_vec();
            corrupt[i] ^= 0x01;
            assert_ne!(crc32(&corrupt), clean, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"split into three uneven pieces";
        let mut crc = 0xFFFF_FFFF;
        crc = crc32_update(crc, &data[..7]);
        crc = crc32_update(crc, &data[7..20]);
        crc = crc32_update(crc, &data[20..]);
        assert_eq!(crc ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference_on_every_short_length() {
        // Exhaustive where the 8-byte body and the byte tail interact
        // (0..=64 bytes), at all 8 start alignments.
        let data: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(167) ^ 0x5a).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, slice),
                    crc32_update_bytewise(0xFFFF_FFFF, slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_any_flip_detected(
            data in proptest::collection::vec(any::<u8>(), 1..200),
            idx in 0usize..10_000,
            bit in 0u8..8,
        ) {
            let i = idx % data.len();
            let mut corrupt = data.clone();
            corrupt[i] ^= 1 << bit;
            prop_assert_ne!(crc32(&corrupt), crc32(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_slicing_by_8_matches_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 4108),
            len in 0usize..=4100,
            init in any::<u32>(),
        ) {
            // A drawn length in 0..=4100 at each of the 8 start
            // alignments, from both the standard initial register and an
            // arbitrary mid-stream one.
            for start in 0..8 {
                let slice = &data[start..start + len];
                for crc in [0xFFFF_FFFF, init] {
                    prop_assert_eq!(
                        crc32_update(crc, slice),
                        crc32_update_bytewise(crc, slice)
                    );
                }
            }
        }
    }
}
