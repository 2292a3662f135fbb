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
//! The table is built in a `const` context — no lazy statics, no deps.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, one byte of input per step.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// Incremental CRC-32 state. Feed bytes with [`Crc32::update`], finish
/// with [`Crc32::finish`]. `Default` starts a fresh checksum.
#[derive(Debug, Clone, Default)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32::default()
    }

    /// Absorbs `bytes` into the running checksum.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = !self.state;
        for &b in bytes {
            crc = TABLE[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        self.state = !crc;
    }

    /// The checksum of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u32 {
        self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let whole = crc32(&data);
        let mut inc = Crc32::new();
        for chunk in data.chunks(37) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), whole);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data: Vec<u8> = (0..64).collect();
        let clean = crc32(&data);
        data[13] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
