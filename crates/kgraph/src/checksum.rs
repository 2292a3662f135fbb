//! CRC-32 (IEEE 802.3) — bit-rot detection for on-disk graph artefacts.
//!
//! Persisted k-Graph models, delta and session state ([`crate::serial`])
//! and write-ahead-log records carry a CRC-32 so that truncation or
//! flipped bits are caught at load time instead of silently producing a
//! wrong graph. The polynomial is the reflected IEEE one (`0xEDB88320`),
//! matching zlib/`crc32fast`, so files can be cross-checked with standard
//! tooling (`python3 -c "import zlib, sys;
//! print(zlib.crc32(open(sys.argv[1],'rb').read()))"`).
//!
//! The kernel is slicing-by-16: each step folds 16 input bytes through
//! 16 independent table lookups, and the last `len % 16` bytes go
//! through the one-byte table. The 16 KiB of tables are built in a
//! `const` context — no lazy statics, no deps.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][i]` is the CRC register contribution of byte `i` followed
/// by `k` zero bytes. `TABLES[0]` is the classic one-byte table.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut buf = [0u8; 16];
        buf.copy_from_slice(block);
        for (b, c) in buf.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        // Byte `j` of the block is followed by `15 - j` more bytes.
        crc = buf
            .iter()
            .zip(TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
    }
    for &b in blocks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced kernel must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Seeded xorshift64 bytes, so the oracle sweep needs no dependency.
    fn pseudo_random(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_kernel_matches_bytewise_oracle() {
        let data = pseudo_random(16 + 300, 0x9E37_79B9_7F4A_7C15);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let big = pseudo_random(2_400_000, 7);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data: Vec<u8> = (0..64).collect();
        let clean = crc32(&data);
        data[13] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
